// Package workloads re-implements, at reduced scale, the benchmark
// programs of the paper's evaluation: the SNU NAS Parallel Benchmarks and
// Starbench (Chapter 2 and Section 4.1), the Barcelona OpenMP Task Suite
// (Section 4.4.3), PARSEC-like pipeline applications, libVorbis- and
// FaceDetection-like multimedia apps (Section 4.4.4), the gzip/bzip2-like
// block compressors of Table 4.5, and the textbook programs of Table 4.2.
//
// Each workload is built as an IR module whose dependence structure matches
// its real counterpart — DOALL kernels, reductions, carried recurrences,
// indirect histogram writes, pipelines, recursive task decompositions, and
// pathological patterns such as FT's dummy-variable WAW chain (Figure
// 2.14). The evaluation's shape (which loops are parallel, which programs
// skip well, where signatures collide) is a function of this structure.
package workloads

import (
	"fmt"
	"sort"
	"strings"

	"discopop/internal/ir"
)

// Truth records the ground-truth parallelism of a workload's loops,
// captured while the module is built.
type Truth struct {
	// DOALL lists loops whose iterations are independent (including
	// reduction loops, which the tools of Table 4.1 also count).
	DOALL []*ir.Region
	// DOACROSS lists loops with carried dependences confined to a part of
	// the body (pipelinable).
	DOACROSS []*ir.Region
	// Seq lists loops that are inherently sequential.
	Seq []*ir.Region
	// Hot is the hottest loop (Table 4.4 examines the biggest hot loops).
	Hot *ir.Region
	// TaskFuncs lists functions expected to expose task parallelism.
	TaskFuncs []*ir.Func
}

// Program is a built workload: the module plus its ground truth.
type Program struct {
	Name  string
	M     *ir.Module
	Truth Truth
}

// Builder constructs a workload at the given scale (1 = bench default;
// larger values increase the dynamic instruction count roughly linearly).
type BuilderFunc func(scale int) *Program

type entry struct {
	name  string
	suite string
	build BuilderFunc
}

var registry []entry

func register(name, suite string, build BuilderFunc) {
	registry = append(registry, entry{name, suite, build})
}

// Info describes one registry entry without building it — the enumerable
// registry view served by listing endpoints (e.g. dp-serve's
// GET /v1/workloads) and tooling that needs names and suites but not
// modules.
type Info struct {
	Name  string `json:"name"`
	Suite string `json:"suite"`
}

// List returns every registered workload's Info in registration order,
// optionally filtered by suite ("" = all).
func List(suite string) []Info {
	out := make([]Info, 0, len(registry))
	for _, e := range registry {
		if suite == "" || e.suite == suite {
			out = append(out, Info{Name: e.name, Suite: e.suite})
		}
	}
	return out
}

// Names returns all registered workload names, optionally filtered by
// suite ("" = all), in registration order.
func Names(suite string) []string {
	var out []string
	for _, e := range registry {
		if suite == "" || e.suite == suite {
			out = append(out, e.name)
		}
	}
	return out
}

// Suites returns the distinct suite names.
func Suites() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range registry {
		if !seen[e.suite] {
			seen[e.suite] = true
			out = append(out, e.suite)
		}
	}
	sort.Strings(out)
	return out
}

// BuildBatch builds a comma-separated workload list ("all" for every
// bundled workload) at the given scale — the shared spec syntax of the
// multi-workload CLIs.
func BuildBatch(spec string, scale int) ([]*Program, error) {
	var names []string
	if spec == "all" {
		names = Names("")
	} else {
		for _, n := range strings.Split(spec, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	}
	progs := make([]*Program, 0, len(names))
	for _, n := range names {
		p, err := Build(n, scale)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// Build constructs the named workload.
func Build(name string, scale int) (*Program, error) {
	for _, e := range registry {
		if e.name == name {
			p := e.build(scale)
			p.Name = e.name
			return p, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// MustBuild is Build that panics on unknown names (registry is static).
func MustBuild(name string, scale int) *Program {
	p, err := Build(name, scale)
	if err != nil {
		panic(err)
	}
	return p
}

func sc(scale, base int) int {
	if scale <= 0 {
		scale = 1
	}
	return base * scale
}

// fillRand emits a loop initializing arr[0..n) with pseudo-random values —
// an initialization DOALL loop, recorded in truth when t is non-nil.
func fillRand(fb *ir.FuncBuilder, arr *ir.Var, n int, t *Truth) *ir.Region {
	r := fb.For("init_i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(arr, ir.V(i), ir.Rnd())
	})
	if t != nil {
		t.DOALL = append(t.DOALL, r)
	}
	return r
}

// fillLinear initializes arr[i] = a*i + b.
func fillLinear(fb *ir.FuncBuilder, arr *ir.Var, n int, a, b float64, t *Truth) *ir.Region {
	r := fb.For("init_i", ir.CI(0), ir.CI(int64(n)), ir.CI(1), func(i *ir.Var) {
		fb.SetAt(arr, ir.V(i), ir.Add(ir.Mul(ir.CF(a), ir.V(i)), ir.CF(b)))
	})
	if t != nil {
		t.DOALL = append(t.DOALL, r)
	}
	return r
}
