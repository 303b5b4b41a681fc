package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"kronvalid"
)

// OutputFlags holds the output-mode flags krongen and gengen share: the
// same four flags with the same meaning, so a pipeline built around one
// generator CLI works unchanged around the other.
type OutputFlags struct {
	Out      string
	Binary   bool
	Digest   bool
	Progress bool
}

// RegisterOutputFlags registers -out, -binary, -digest and -progress on
// the default flag set. Call before flag.Parse.
func RegisterOutputFlags() *OutputFlags {
	f := &OutputFlags{}
	flag.StringVar(&f.Out, "out", "", "output directory for shard files (default: stdout stream)")
	flag.BoolVar(&f.Binary, "binary", false, "write 16-byte binary arcs instead of TSV (needs -out)")
	flag.BoolVar(&f.Digest, "digest", false, "print the canonical stream digest and exit")
	flag.BoolVar(&f.Progress, "progress", false, "report generation progress on stderr")
	return f
}

// ProgressOption returns the pipeline option -progress selects (none
// when unset) and the func that terminates the progress line; call it
// once the verb returns, before printing anything else.
func (f *OutputFlags) ProgressOption(src kronvalid.Source) (opts []kronvalid.Option, done func()) {
	if !f.Progress {
		return nil, func() {}
	}
	report, done := progressReporter(os.Stderr, src.TotalArcs())
	return []kronvalid.Option{kronvalid.WithProgress(report)}, done
}

// Emit runs the output mode the flags select over src: -digest prints
// the canonical stream digest, -out DIR writes one file per shard plus
// manifest.json (16-byte binary arcs with -binary), and neither streams
// TSV to stdout through the ordered pipeline. tool prefixes the summary
// line on stderr.
func (f *OutputFlags) Emit(ctx context.Context, tool string, src kronvalid.Source) error {
	opts, done := f.ProgressOption(src)
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
		if f.Binary {
			return errors.New("-binary needs -out DIR")
		}
		_, err := kronvalid.Stream(ctx, src, kronvalid.NewEdgeListSink(os.Stdout), opts...)
		done()
		return err
	}
	m, err := kronvalid.WriteShards(ctx, f.Out, src, append(opts, kronvalid.WithBinary(f.Binary))...)
	done()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: wrote %d arcs in %d shards (%s) of %s to %s\n",
		tool, m.TotalArcs, m.Workers, m.Format, m.Model, f.Out)
	return nil
}
