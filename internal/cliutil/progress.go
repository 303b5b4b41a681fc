// Package cliutil holds small helpers shared by the command-line tools.
package cliutil

import (
	"fmt"
	"io"
	"time"
)

// progressReporter returns a WithProgress-compatible callback that
// renders coarse progress on w, plus a done func that terminates the
// progress line. Updates are throttled by time (at most one line per
// ~150 ms), not by call count, so short runs stay silent and long runs
// update smoothly regardless of batch size. done is idempotent and
// prints the terminating newline only if at least one update was
// rendered, so the caller can invoke it unconditionally before its
// summary output.
func progressReporter(w io.Writer, total int64) (report func(arcs, shards int64), done func()) {
	const interval = 150 * time.Millisecond
	last := time.Now()
	printed := false
	report = func(arcs, shards int64) {
		now := time.Now()
		if now.Sub(last) < interval {
			return
		}
		last = now
		printed = true
		if total > 0 {
			fmt.Fprintf(w, "\rprogress: %d/%d arcs (%.1f%%), %d shards done",
				arcs, total, 100*float64(arcs)/float64(total), shards)
		} else {
			fmt.Fprintf(w, "\rprogress: %d arcs, %d shards done", arcs, shards)
		}
	}
	done = func() {
		if printed {
			fmt.Fprintln(w)
			printed = false
		}
	}
	return report, done
}
