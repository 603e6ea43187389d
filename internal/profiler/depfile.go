package profiler

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"discopop/internal/ir"
)

// This file implements reading the textual dependence format of Figures
// 2.1 and 2.3 back into structured form, so that downstream tools (the
// discovery phase, pattern detectors, external consumers) can work from a
// dependence file produced by an earlier profiling run — the way the
// paper's Phase 2 consumes the output of Phase 1 from disk.

// DepFile is a parsed dependence file.
type DepFile struct {
	// Deps holds the dependences; counts are 1 (the file stores merged
	// dependences without multiplicities).
	Deps map[Dep]int64
	// Vars maps the variable IDs used in Deps back to names.
	Vars []string
	// Loops records BGN/END loop markers: start location -> iterations.
	Loops map[ir.Loc]int64
	// LoopEnds records END marker locations keyed by iterations order.
	LoopEnds map[ir.Loc]int64
}

// ParseDepFile parses the Figure 2.1 (sequential) or Figure 2.3
// (multi-threaded) format.
func ParseDepFile(text string) (*DepFile, error) {
	df := &DepFile{
		Deps:     map[Dep]int64{},
		Loops:    map[ir.Loc]int64{},
		LoopEnds: map[ir.Loc]int64{},
	}
	varID := map[string]int32{}
	intern := func(name string) int32 {
		if id, ok := varID[name]; ok {
			return id
		}
		id := int32(len(df.Vars))
		varID[name] = id
		df.Vars = append(df.Vars, name)
		return id
	}
	var openLoops []ir.Loc
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "===") {
			// Workload separator emitted by multi-workload dp-profile
			// runs ("=== name ==="); the dependences on either side parse
			// as one merged file.
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("depfile line %d: malformed: %q", lineNo, line)
		}
		sinkLoc, sinkThr, err := parseLocThread(fields[0])
		if err != nil {
			return nil, fmt.Errorf("depfile line %d: %v", lineNo, err)
		}
		switch fields[1] {
		case "BGN":
			openLoops = append(openLoops, sinkLoc)
			continue
		case "END":
			if len(fields) >= 4 {
				iters, err := strconv.ParseInt(fields[3], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("depfile line %d: bad iteration count", lineNo)
				}
				df.LoopEnds[sinkLoc] = iters
				if len(openLoops) > 0 {
					df.Loops[openLoops[len(openLoops)-1]] = iters
					openLoops = openLoops[:len(openLoops)-1]
				}
			}
			continue
		case "NOM":
		default:
			return nil, fmt.Errorf("depfile line %d: unknown marker %q", lineNo, fields[1])
		}
		// Parse the {TYPE loc|var} entries.
		rest := line[strings.Index(line, "NOM")+3:]
		for {
			open := strings.Index(rest, "{")
			if open < 0 {
				break
			}
			clos := strings.Index(rest, "}")
			if clos < open {
				return nil, fmt.Errorf("depfile line %d: unbalanced braces", lineNo)
			}
			entry := rest[open+1 : clos]
			rest = rest[clos+1:]
			reversed := strings.HasPrefix(rest, "!")
			d, err := parseEntry(entry, sinkLoc, sinkThr, intern)
			if err != nil {
				return nil, fmt.Errorf("depfile line %d: %v", lineNo, err)
			}
			d.Reversed = reversed
			df.Deps[d]++
		}
	}
	return df, sc.Err()
}

// parseLocThread parses "f:l" or "f:l|t".
func parseLocThread(s string) (ir.Loc, int16, error) {
	thr := int16(-1)
	if i := strings.IndexByte(s, '|'); i >= 0 {
		t, err := parseThread(s[i+1:])
		if err != nil {
			return ir.Loc{}, 0, fmt.Errorf("bad thread id in %q", s)
		}
		thr = t
		s = s[:i]
	}
	loc, err := ir.ParseLoc(s)
	return loc, thr, err
}

// parseThread parses a thread ID. One that does not fit in the int16 a Dep
// keeps is an error, not an ID wrapped into range.
func parseThread(s string) (int16, error) {
	t, err := strconv.ParseInt(s, 10, 16)
	return int16(t), err
}

// parseEntry parses "RAW 1:60|i", "WAR 4:77|2|iter" (MT), or "INIT *".
func parseEntry(entry string, sink ir.Loc, sinkThr int16,
	intern func(string) int32) (Dep, error) {
	d := Dep{Sink: sink, SinkThr: sinkThr, SrcThr: -1, Var: -1, CarriedBy: -1}
	fields := strings.Fields(entry)
	if len(fields) < 2 {
		return d, fmt.Errorf("bad entry %q", entry)
	}
	switch fields[0] {
	case "RAW":
		d.Type = RAW
	case "WAR":
		d.Type = WAR
	case "WAW":
		d.Type = WAW
	case "INIT":
		d.Type = INIT
		return d, nil
	default:
		return d, fmt.Errorf("unknown dependence type %q", fields[0])
	}
	parts := strings.Split(fields[1], "|")
	loc, err := ir.ParseLoc(parts[0])
	if err != nil {
		return d, err
	}
	d.Source = loc
	switch len(parts) {
	case 2: // loc|var
		d.Var = intern(parts[1])
	case 3: // loc|thread|var
		t, err := parseThread(parts[1])
		if err != nil {
			return d, fmt.Errorf("bad source thread in %q", fields[1])
		}
		d.SrcThr = t
		d.Var = intern(parts[2])
	default:
		return d, fmt.Errorf("bad source %q", fields[1])
	}
	return d, nil
}

// CoarseSet reduces a dependence map to the paper's <sink, type, source,
// varname> granularity, using the supplied variable-name resolver, so
// that in-memory results and parsed files can be compared.
func CoarseSet(deps map[Dep]int64, varName func(int32) string) map[string]bool {
	out := map[string]bool{}
	for d := range deps {
		if d.Type == INIT {
			out[fmt.Sprintf("%v INIT", d.Sink)] = true
			continue
		}
		out[fmt.Sprintf("%v %v %v %s", d.Sink, d.Type, d.Source, varName(d.Var))] = true
	}
	return out
}
