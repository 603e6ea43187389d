package profiler

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"discopop/internal/workloads"
)

// canonDeps renders a result's full dependence table — every field of every
// Dep, plus the per-region iteration counts — in a canonical sorted form.
// (WriteDepFile is not byte-stable across runs: markers and sink groups
// sharing a location key interleave in map order, so the tests canonicalize
// at the Dep level instead.)
func canonDeps(res *Result) string {
	lines := make([]string, 0, len(res.Deps)+len(res.Regions))
	for d := range res.Deps {
		lines = append(lines, fmt.Sprintf("dep %+v %s", d, res.VarName(d.Var)))
	}
	for _, re := range res.Regions {
		lines = append(lines, fmt.Sprintf("region %d kind %v iters %d", re.Region.ID, re.Region.Kind, re.Iters))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// depTableOf profiles a freshly built workload on the given engine and
// renders its dependence table.
func depTableOf(name string, treeWalk bool) string {
	prog := workloads.MustBuild(name, 1)
	return canonDeps(Profile(prog.M, Options{Store: StorePerfect, TreeWalk: treeWalk}))
}

// TestVMDepTablesMatchTreeWalk: over the full workload registry, the
// dependence table produced from the bytecode VM's event stream is
// byte-identical to the tree walker's — every dependence, with its
// carried/reversed classification, thread attribution, and source/sink
// locations, plus every region's iteration count. The profiler is a pure
// function of the trace, so this is the end-to-end consequence of trace
// equality — and the acceptance bar for swapping the default engine.
func TestVMDepTablesMatchTreeWalk(t *testing.T) {
	for _, name := range workloads.Names("") {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			walk := depTableOf(name, true)
			vm := depTableOf(name, false)
			if walk != vm {
				t.Errorf("dependence tables diverged between engines\nwalker:\n%s\n\nvm:\n%s",
					clip(walk), clip(vm))
			}
		})
	}
}

// clip keeps failure output readable for large tables.
func clip(s string) string {
	const max = 4000
	if len(s) <= max {
		return s
	}
	return s[:max] + "\n... (truncated)"
}
