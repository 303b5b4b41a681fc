package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kronvalid"
)

// outputFlags holds the output-mode flags: -out, -binary, -digest and
// -progress.
type outputFlags struct {
	Out      string
	Binary   bool
	Digest   bool
	Progress bool
}

// registerOutputFlags registers the output flags on the default flag
// set. Call before flag.Parse.
func registerOutputFlags() *outputFlags {
	f := &outputFlags{}
	flag.StringVar(&f.Out, "out", "", "output directory for shard files (default: stdout stream)")
	flag.BoolVar(&f.Binary, "binary", false, "write 16-byte binary arcs instead of TSV (needs -out)")
	flag.BoolVar(&f.Digest, "digest", false, "print the canonical stream digest and exit")
	flag.BoolVar(&f.Progress, "progress", false, "report generation progress on stderr")
	return f
}

// progressOption returns the pipeline option -progress selects (none
// when unset) and the func that terminates the progress line; call it
// once the verb returns, before printing anything else.
func (f *outputFlags) progressOption(src kronvalid.Source) (opts []kronvalid.Option, done func()) {
	if !f.Progress {
		return nil, func() {}
	}
	report, done := progressReporter(os.Stderr, src.TotalArcs())
	return []kronvalid.Option{kronvalid.WithProgress(report)}, done
}

// emit runs the output mode the flags select over src: -digest prints
// the canonical stream digest, -out DIR writes one file per shard plus
// manifest.json (16-byte binary arcs with -binary), and neither streams
// TSV to stdout through the ordered pipeline.
func (f *outputFlags) emit(ctx context.Context, src kronvalid.Source) error {
	opts, done := f.progressOption(src)
	if f.Digest {
		d, err := kronvalid.Digest(ctx, src, opts...)
		done()
		if err != nil {
			return err
		}
		fmt.Printf("%s\t%s\n", d, src.Name())
		return nil
	}
	if f.Out == "" {
		_, err := kronvalid.Stream(ctx, src, kronvalid.NewEdgeListSink(os.Stdout), opts...)
		done()
		return err
	}
	m, err := kronvalid.WriteShards(ctx, f.Out, src, append(opts, kronvalid.WithBinary(f.Binary))...)
	done()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gengen: wrote %d arcs in %d shards (%s) of %s to %s\n",
		m.TotalArcs, m.Workers, m.Format, m.Source, f.Out)
	return nil
}

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
