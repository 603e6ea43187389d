package pipeline

import (
	"strings"
	"testing"
	"time"

	"discopop/internal/workloads"
)

// TestDefaultPipelineMatchesStageProducts runs the default pipeline and
// checks that every stage filled in its product and recorded its time.
func TestDefaultPipelineMatchesStageProducts(t *testing.T) {
	prog := workloads.MustBuild("histogram", 1)
	ctx := &Context{Mod: prog.M}
	if err := New().Run(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Profile == nil || ctx.PET == nil || ctx.Scope == nil ||
		ctx.CUs == nil || ctx.Analysis == nil || ctx.Ranked == nil {
		t.Fatalf("missing stage products: %+v", ctx)
	}
	if ctx.Instrs == 0 {
		t.Error("no instructions recorded")
	}
	rep := ctx.Report()
	if len(rep.Times) != 5 {
		t.Fatalf("want 5 stage times, got %d", len(rep.Times))
	}
	for _, name := range []string{"profile", "build-pet", "build-cus", "discover", "rank"} {
		found := false
		for _, st := range rep.Times {
			if st.Stage == name {
				found = true
			}
		}
		if !found {
			t.Errorf("stage %s not timed", name)
		}
	}
	if rep.Profile != ctx.Profile || rep.Instrs != ctx.Instrs {
		t.Error("report does not reflect context products")
	}
}

// TestProfilePipelineStopsAfterPET: the profile-only composition must not
// build CUs or suggestions.
func TestProfilePipelineStopsAfterPET(t *testing.T) {
	prog := workloads.MustBuild("histogram", 1)
	ctx := &Context{Mod: prog.M}
	if err := ProfilePipeline().Run(ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Profile == nil || ctx.PET == nil {
		t.Fatal("profile products missing")
	}
	if ctx.CUs != nil || ctx.Analysis != nil || ctx.Ranked != nil {
		t.Error("profile-only pipeline built phase-2/3 products")
	}
}

// TestStageRequiresPredecessors: stages run out of order report errors
// instead of panicking.
func TestStageRequiresPredecessors(t *testing.T) {
	prog := workloads.MustBuild("histogram", 1)
	for _, pl := range []*Pipeline{
		{Stages: []Stage{BuildPET{}}},
		{Stages: []Stage{BuildCUs{}}},
		{Stages: []Stage{Discover{}}},
		{Stages: []Stage{Rank{}}},
	} {
		ctx := &Context{Mod: prog.M}
		if err := pl.Run(ctx); err == nil {
			t.Errorf("stage %s without predecessors did not fail", pl.Stages[0].Name())
		}
	}
	if err := New().Run(&Context{}); err == nil ||
		!strings.Contains(err.Error(), "no module") {
		t.Error("nil module not rejected")
	}
}

// TestCustomStageObservesContext: a caller-defined stage slots into the
// sequence and sees upstream products.
func TestCustomStageObservesContext(t *testing.T) {
	prog := workloads.MustBuild("histogram", 1)
	var sawDeps int
	pl := New()
	pl.Stages = append(pl.Stages, stageFunc{name: "audit", f: func(ctx *Context) error {
		sawDeps = len(ctx.Profile.Deps)
		return nil
	}})
	ctx := &Context{Mod: prog.M}
	if err := pl.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if sawDeps == 0 {
		t.Error("custom stage saw no dependences")
	}
	if times := ctx.Report().Times; times[len(times)-1].Stage != "audit" {
		t.Error("custom stage not recorded in stage times")
	}
}

// TestNestedStageTimesNotDoubleCounted pins the net-of-nested charging:
// a stage that runs a nested pipeline (the remote stage's local
// fallback) nests the stages' spans in its own, and its own entry must
// cover only its overhead — summing Report.Times must never count the
// nested interval twice.
func TestNestedStageTimesNotDoubleCounted(t *testing.T) {
	prog := workloads.MustBuild("histogram", 1)
	outer := &Pipeline{Stages: []Stage{stageFunc{name: "wrapper", f: func(ctx *Context) error {
		return New().Run(ctx)
	}}}}
	ctx := &Context{Mod: prog.M}
	if err := outer.Run(ctx); err != nil {
		t.Fatal(err)
	}
	var nested, wrapper time.Duration
	for _, st := range ctx.Report().Times {
		if st.Stage == "wrapper" {
			wrapper = st.D
		} else {
			nested += st.D
		}
	}
	if nested == 0 {
		t.Fatal("nested stage entries missing")
	}
	// The wrapper's own overhead is a few closure calls; if it were
	// charged the whole interval it would be >= the nested sum.
	if wrapper >= nested {
		t.Fatalf("wrapper charged %v, nested stages %v: nested interval double-counted", wrapper, nested)
	}
}

// TestFromWire: a report read back from its wire form ranks the same
// suggestions at the same locations, resolved against the reader's module;
// a malformed location, one past int32 included, fails the read.
func TestFromWire(t *testing.T) {
	prog := workloads.MustBuild("histogram", 1)
	ctx := &Context{Mod: prog.M}
	if err := New().Run(ctx); err != nil {
		t.Fatal(err)
	}
	wire := summary(ctx.Report())
	if len(wire.Suggestions) == 0 {
		t.Fatal("histogram has no suggestions")
	}
	back := &Context{Mod: prog.M}
	if err := back.FromWire(wire); err != nil {
		t.Fatal(err)
	}
	for i, w := range wire.Suggestions {
		s := back.Ranked[i]
		if s.Loc.String() != w.Loc || s.Kind.String() != w.Kind {
			t.Errorf("suggestion %d: read back %s %s, want %s %s", i, s.Kind, s.Loc, w.Kind, w.Loc)
		}
		if s.Region == nil && s.Func == nil {
			t.Errorf("suggestion %d at %s resolves to no region or function", i, s.Loc)
		}
	}

	for _, loc := range []string{"", "7", "x:1", "1:y", "1:4294967297", "4294967297:1"} {
		bad := *wire
		bad.Suggestions = []WireSuggestion{{Kind: "DOALL", Loc: loc}}
		if err := (&Context{Mod: prog.M}).FromWire(&bad); err == nil {
			t.Errorf("location %q read without an error", loc)
		}
	}
}

type stageFunc struct {
	name string
	f    func(*Context) error
}

func (s stageFunc) Name() string           { return s.name }
func (s stageFunc) Run(ctx *Context) error { return s.f(ctx) }
