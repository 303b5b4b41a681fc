package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profiles holds the pprof output paths of -cpuprofile and -memprofile.
type profiles struct {
	cpu, mem *string
	cpuFile  *os.File
}

// profileFlags registers -cpuprofile and -memprofile on the default
// flag set. Call before flag.Parse.
func profileFlags() *profiles {
	return &profiles{
		cpu: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: flag.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// start begins CPU profiling if requested. The returned stop must run
// on every exit path that should yield profiles: it finishes the CPU
// profile and writes the heap profile (after a final GC, so the
// snapshot shows live bytes rather than collectable garbage).
func (p *profiles) start() (stop func() error, err error) {
	if *p.cpu != "" {
		f, err := os.Create(*p.cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpuFile = f
	}
	return p.stop, nil
}

func (p *profiles) stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpuFile = nil
	}
	if *p.mem != "" {
		f, err := os.Create(*p.mem)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}
