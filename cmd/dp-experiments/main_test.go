package main

import (
	"strings"
	"testing"

	"discopop/internal/experiments"
)

func ids(exps []experiments.Experiment) []string {
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out
}

// TestRunSelectsIndexEntries checks -run selection against the index
// without running any experiment.
func TestRunSelectsIndexEntries(t *testing.T) {
	for _, e := range experiments.Index {
		got, err := selected(e.ID)
		if err != nil || len(got) != 1 || got[0].ID != e.ID {
			t.Errorf("-run %s selects %v (err %v), want exactly [%s]", e.ID, ids(got), err, e.ID)
		}
	}
	// The DESIGN.md index lists table5.2/5.3 as one row; each table number
	// selects it, and so does the upper-case spelling.
	for _, run := range []string{"table5.2", "table5.3", "TABLE5.3"} {
		got, err := selected(run)
		if err != nil || len(got) != 1 || got[0].ID != "table5.2/5.3" {
			t.Errorf("-run %s selects %v (err %v), want [table5.2/5.3]", run, ids(got), err)
		}
	}

	got, err := selected("table4")
	want := "table4.1 table4.2 table4.3 table4.4 table4.5 table4.6 table4.7"
	if err != nil || strings.Join(ids(got), " ") != want {
		t.Errorf("-run table4 selects %v (err %v), want %s", ids(got), err, want)
	}

	if got, _ := selected(""); len(got) != len(experiments.Index) {
		t.Errorf("an empty -run selects %d entries, want all %d", len(got), len(experiments.Index))
	}

	got, err = selected("table9.9")
	if err == nil {
		t.Fatalf("-run table9.9 selects %v, want an error", ids(got))
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, `unknown experiment "table9.9"; known: `) {
		t.Errorf("error = %q", msg)
	}
	for _, e := range experiments.Index {
		if !strings.Contains(msg, " "+e.ID) {
			t.Errorf("error %q does not list %s", msg, e.ID)
		}
	}
}
