// Package comm implements the third further application of the framework
// (Section 5.3): detecting communication patterns on multicore systems.
// A cross-thread read-after-write dependence is communication — the
// reading thread consumes data the writing thread produced. Aggregating
// dependence instances into a thread × thread matrix and rendering it as a
// heat map reproduces Figure 5.1.
package comm

import (
	"fmt"
	"strings"

	"discopop/internal/profiler"
)

// Matrix is a communication matrix: Counts[src][dst] is the number of
// dependence instances in which thread dst read data thread src wrote.
type Matrix struct {
	Threads int
	Counts  [][]int64
}

// FromProfile builds the communication matrix of a multi-threaded
// profiling run.
func FromProfile(res *profiler.Result) *Matrix {
	maxT := 0
	for d := range res.Deps {
		if int(d.SinkThr) > maxT {
			maxT = int(d.SinkThr)
		}
		if int(d.SrcThr) > maxT {
			maxT = int(d.SrcThr)
		}
	}
	m := &Matrix{Threads: maxT + 1}
	m.Counts = make([][]int64, m.Threads)
	for i := range m.Counts {
		m.Counts[i] = make([]int64, m.Threads)
	}
	for d, n := range res.Deps {
		if d.Type != profiler.RAW || d.SinkThr < 0 || d.SrcThr < 0 {
			continue
		}
		m.Counts[d.SrcThr][d.SinkThr] += n
	}
	return m
}

// CrossThread returns the communication volume excluding the diagonal
// (thread-local reuse).
func (m *Matrix) CrossThread() int64 {
	var t int64
	for i, row := range m.Counts {
		for j, c := range row {
			if i != j {
				t += c
			}
		}
	}
	return t
}

// Pattern classifies the matrix shape, mirroring the pattern families the
// paper's Figure 5.1 distinguishes.
type Pattern string

// Communication pattern families.
const (
	PatternNone      Pattern = "none"          // no cross-thread communication
	PatternMaster    Pattern = "master-worker" // one thread dominates a row/column
	PatternPipeline  Pattern = "pipeline"      // band above/below the diagonal
	PatternAllToAll  Pattern = "all-to-all"    // dense matrix
	PatternScattered Pattern = "scattered"     // sparse, irregular
)

// Classify labels the matrix with a pattern family.
func (m *Matrix) Classify() Pattern {
	cross := m.CrossThread()
	if cross == 0 {
		return PatternNone
	}
	n := m.Threads
	// Master-worker: one row or column carries most cross communication.
	for i := 0; i < n; i++ {
		var row, col int64
		for j := 0; j < n; j++ {
			if i != j {
				row += m.Counts[i][j]
				col += m.Counts[j][i]
			}
		}
		if row*10 >= cross*8 || col*10 >= cross*8 {
			return PatternMaster
		}
	}
	// Pipeline: the first off-diagonals carry most communication.
	var band int64
	for i := 0; i+1 < n; i++ {
		band += m.Counts[i][i+1] + m.Counts[i+1][i]
	}
	if band*10 >= cross*8 {
		return PatternPipeline
	}
	// Density check.
	nonzero := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && m.Counts[i][j] > 0 {
				nonzero++
			}
		}
	}
	if n > 1 && nonzero >= (n*(n-1))*3/4 {
		return PatternAllToAll
	}
	return PatternScattered
}

// Render draws the matrix as an ASCII heat map (rows = producing thread,
// columns = consuming thread), the textual analogue of Figure 5.1.
func (m *Matrix) Render() string {
	shades := []byte(" .:-=+*#%@")
	var max int64
	for _, row := range m.Counts {
		for _, c := range row {
			if c > max {
				max = c
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "     ")
	for j := 0; j < m.Threads; j++ {
		fmt.Fprintf(&sb, "%3d", j)
	}
	sb.WriteString("\n")
	for i, row := range m.Counts {
		fmt.Fprintf(&sb, "T%-3d ", i)
		for _, c := range row {
			shade := byte(' ')
			if max > 0 && c > 0 {
				idx := int(c * int64(len(shades)-1) / max)
				if idx == 0 {
					idx = 1
				}
				shade = shades[idx]
			}
			fmt.Fprintf(&sb, "  %c", shade)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "pattern: %s, cross-thread instances: %d\n", m.Classify(), m.CrossThread())
	return sb.String()
}
