// Package profflag wires runtime/pprof into a command's flag set: a
// -cpuprofile flag that brackets the whole run and a -memprofile flag that
// snapshots the heap on exit. Commands call Register before parsing their
// flag set, then Start after it and defer Stop — which requires main to be shaped as
// `os.Exit(run())` so the deferred Stop runs before the process exits.
package profflag

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile destinations and the open CPU-profile file.
type Flags struct {
	cpu *string
	mem *string
	f   *os.File
}

// Register installs -cpuprofile and -memprofile on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins CPU profiling when -cpuprofile was given.
func (p *Flags) Start() error {
	if *p.cpu == "" {
		return nil
	}
	f, err := os.Create(*p.cpu)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.f = f
	return nil
}

// Stop ends CPU profiling and writes the heap profile, if requested. It is
// safe to call when Start did nothing. Errors are reported to stderr
// rather than returned: by the time Stop runs the command's exit code is
// already decided, and a failed profile write must not mask it.
func (p *Flags) Stop() {
	if p.f != nil {
		pprof.StopCPUProfile()
		if err := p.f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		}
		p.f = nil
	}
	if *p.mem == "" {
		return
	}
	f, err := os.Create(*p.mem)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize only live objects in the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
	}
}
