package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"discopop"
	"discopop/internal/profiler"
	"discopop/internal/workloads"
)

// expectedCounts is what a correct profile of one program reports under
// the perfect store.
type expectedCounts struct {
	Instrs   int64 `json:"instrs"`
	Accesses int64 `json:"accesses"`
	Deps     int   `json:"deps"`
}

// expectations maps "name@scale" (or "name@scale/mt" for a profile under
// the multi-threaded-target pipeline) to the committed counts.
type expectations map[string]expectedCounts

// expected.json was generated once with the tree-walking reference engine,
// the interpreter that shares no code with the bytecode VM the measured
// runs use. Regenerate with `go run ./bench -write-expected` only when a
// workload's program is changed on purpose.
//
//go:embed expected.json
var expectedJSON []byte

func loadExpected() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("bench/expected.json: %w", err)
	}
	return e, nil
}

func expectKey(p progSpec, mt bool) string {
	k := fmt.Sprintf("%s@%d", p.Name, p.Scale)
	if mt {
		k += "/mt"
	}
	return k
}

// writeExpected regenerates expected.json for every program the solo
// workloads analyse (at full and at smoke-test sizes) and every registry
// workload the generated traffic names.
func writeExpected(path string) error {
	e := expectations{}
	add := func(p progSpec, mt bool) error {
		key := expectKey(p, mt)
		if _, done := e[key]; done {
			return nil
		}
		prog, err := workloads.Build(p.Name, p.Scale)
		if err != nil {
			return err
		}
		rep := discopop.Analyze(prog.M, discopop.Options{Profiler: profiler.Options{TreeWalk: true, MT: mt}})
		e[key] = expectedCounts{Instrs: rep.Instrs, Accesses: rep.Profile.Accesses, Deps: len(rep.Profile.Deps)}
		fmt.Fprintf(os.Stderr, "%-22s instrs %10d accesses %10d deps %d\n", key, rep.Instrs, rep.Profile.Accesses, len(rep.Profile.Deps))
		return nil
	}
	for _, sz := range []sizing{fullSizing, tinySizing} {
		for _, name := range workloadNames[:2] {
			serial, mt := soloPrograms(name, sz)
			for _, p := range serial {
				if err := add(p, false); err != nil {
					return err
				}
			}
			for _, p := range mt {
				if err := add(p, true); err != nil {
					return err
				}
			}
		}
	}
	for _, name := range registryWorkloads {
		if err := add(progSpec{name, 1}, false); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
