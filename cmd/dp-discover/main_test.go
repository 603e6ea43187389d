package main

import (
	"strings"
	"testing"
)

// TestParse pins dp-discover's flag validation: which command lines are
// usage errors (exit 2 before any workload is built), and that an accepted
// one lands in the config.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string // substring; "" = accepted
	}{
		{"-workload CG", ""},
		{"-workload CG,EP -jobs 4 -stats -v", ""},
		{"-workload CG -dot clustered", ""},
		{"-workload CG -cus", ""},
		{"-workload all -remote http://127.0.0.1:1", ""},
		{"", "usage: dp-discover -workload"},
		{"-scale 2", "usage: dp-discover -workload"},
		{"-workload CG,EP -dot raw", "-dot supports a single workload"},
		{"-workload all -dot raw", "-dot supports a single workload"},
		{"-workload CG -remote http://127.0.0.1:1 -cus", "cannot combine with -remote"},
		{"-workload CG -remote http://127.0.0.1:1 -dot raw", "cannot combine with -remote"},
		{"-workload CG -no-such-flag", "flag provided but not defined"},
		{"-workload CG -scale x", "invalid value"},
	} {
		c, err := parse(strings.Fields(tc.args))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: rejected: %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.wantErr)
		}
		if err == nil && !strings.Contains(tc.args, "-workload "+c.workload) {
			t.Errorf("%q: parsed workload %q", tc.args, c.workload)
		}
	}
	c, err := parse(strings.Fields("-workload CG -scale 3 -threads 8 -bottomup -trace"))
	if err != nil || c.scale != 3 || c.threads != 8 || !c.bottomUp || !c.trace || c.jobs != 0 {
		t.Errorf("parsed %+v, %v", c, err)
	}
}
