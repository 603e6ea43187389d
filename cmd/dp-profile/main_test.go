package main

import (
	"strings"
	"testing"

	"discopop/internal/profiler"
)

// TestParse pins dp-profile's flag handling: which command lines are usage
// errors (exit 2 before any workload is built) — an unknown -store used to
// profile with the exact store and a negative -slots with a 16-cell
// signature, both silently — and that an accepted one lands in the profiler
// options it asks for. -slots defaults to 0, which profiler.Options reads as
// its own default: "the default signature" is one size through the CLI and
// the library.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string // substring; "" = accepted
		want    profiler.Options
	}{
		{"-workload CG", "", profiler.Options{}},
		{"", "", profiler.Options{}}, // lists the workloads
		{"-list", "", profiler.Options{}},
		{"-workload CG -store perfect", "", profiler.Options{Store: profiler.StorePerfect}},
		{"-workload CG -store sig", "", profiler.Options{Store: profiler.StoreSignature}},
		{"-workload CG -store sig -slots 1000000 -skip", "",
			profiler.Options{Store: profiler.StoreSignature, Slots: 1000000, Skip: true}},
		{"-workload CG -store sig -slots 0", "", profiler.Options{Store: profiler.StoreSignature}},
		{"-workload md5-mt -mt -workers 4", "", profiler.Options{MT: true, Workers: 4}},
		{"-workload CG -store signature", `unknown -store "signature"`, profiler.Options{}},
		{"-workload CG -store Sig", `unknown -store "Sig"`, profiler.Options{}},
		{"-workload CG -store", "flag needs an argument", profiler.Options{}},
		{"-workload CG -store sig -slots -5", "-slots -5 is negative", profiler.Options{}},
		{"-workload CG -slots x", "invalid value", profiler.Options{}},
		{"-workload CG -no-such-flag", "flag provided but not defined", profiler.Options{}},
	} {
		c, err := parse(strings.Fields(tc.args))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.wantErr)
		case tc.wantErr == "" && c.popt != tc.want:
			t.Errorf("%q: profiler options %+v, want %+v", tc.args, c.popt, tc.want)
		}
	}
	c, err := parse(strings.Fields("-workload CG,EP -scale 3 -jobs 2 -o deps.txt -pet -pprof cg.pb.gz"))
	if err != nil || c.workload != "CG,EP" || c.scale != 3 || c.jobs != 2 || c.out != "deps.txt" ||
		!c.withPET || c.pprofOut != "cg.pb.gz" || c.list {
		t.Errorf("parsed %+v, %v", c, err)
	}
}
