package profflag

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestStartStop drives the flag pair through every combination a command
// line can give it. A profile that was asked for must exist and be non-empty
// after Stop; one that was not must not appear; an unwritable -cpuprofile
// fails Start (the command exits before doing any work), an unwritable
// -memprofile is reported by Stop without failing it (the exit code is
// already decided by then).
func TestStartStop(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-dir", "out.pprof")
	for _, tc := range []struct {
		name     string
		cpu, mem string // "" = flag not given
		startErr bool
		wantCPU  bool
		wantMem  bool
	}{
		{name: "neither"},
		{name: "cpu", cpu: filepath.Join(dir, "a.cpu"), wantCPU: true},
		{name: "mem", mem: filepath.Join(dir, "b.mem"), wantMem: true},
		{name: "both", cpu: filepath.Join(dir, "c.cpu"), mem: filepath.Join(dir, "c.mem"), wantCPU: true, wantMem: true},
		{name: "unwritable cpu", cpu: missing, startErr: true},
		{name: "unwritable mem", mem: missing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
			pf := Register(fs)
			var args []string
			if tc.cpu != "" {
				args = append(args, "-cpuprofile", tc.cpu)
			}
			if tc.mem != "" {
				args = append(args, "-memprofile", tc.mem)
			}
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			err := pf.Start()
			if (err != nil) != tc.startErr {
				t.Fatalf("Start error = %v, want error: %v", err, tc.startErr)
			}
			pf.Stop()
			pf.Stop() // safe to repeat: the CPU profile is closed only once
			for _, f := range []struct {
				path string
				want bool
			}{{tc.cpu, tc.wantCPU}, {tc.mem, tc.wantMem}} {
				if f.path == "" {
					continue
				}
				st, err := os.Stat(f.path)
				if f.want && (err != nil || st.Size() == 0) {
					t.Errorf("%s: profile missing or empty (%v)", f.path, err)
				}
				if !f.want && err == nil {
					t.Errorf("%s: exists though it could not have been written", f.path)
				}
			}
		})
	}
}
