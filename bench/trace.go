package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"discopop/internal/obs"
)

// spanLog keeps the traced run's spans in memory until the run ends; only
// the run's main goroutine records into it (client spans are added from
// the job records once a phase is over). Spans
// use internal/obs's wire form, so the log is written with the same Chrome
// trace renderer dp-serve uses and server-returned span trees graft in
// without conversion.
type spanLog struct {
	spans []obs.Span
}

// add records one closed span and returns its index (the parent handle of
// its children). parent is -1 for a root.
func (l *spanLog) add(name string, start time.Time, dur time.Duration, parent int, node string, attrs map[string]string) int {
	l.spans = append(l.spans, obs.Span{Name: name, Start: start.UnixNano(), Dur: int64(dur),
		Parent: parent, Node: node, Attrs: attrs})
	return len(l.spans) - 1
}

// graft splices a span tree returned in a job result under parent. The
// servers run on this machine, so their clocks need no shifting. Spans take
// their layer as a prefix (see stageName) so the self-time table can group
// by layer; spans recorded by a worker keep the worker's URL in their node.
func (l *spanLog) graft(parent int, node string, spans []obs.Span) {
	base := len(l.spans)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			s.Parent += base
		} else {
			s.Parent = parent
		}
		s.Name = stageName(s.Name)
		if s.Node != "" {
			s.Node = node + " via " + s.Node
		} else {
			s.Node = node
		}
		l.spans = append(l.spans, s)
	}
}

// write renders the log as Chrome trace-event JSON.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr := &obs.Trace{ID: "bench", Spans: l.spans}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps a span name to its layer: the package-name prefix.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover, over the trees whose root span has the given
// name. Children are clipped to the parent's interval (a server's queue
// span predates the job span it hangs under). The second result is the
// summed duration of those roots.
func (l *spanLog) selfTimes(rootName string) (map[string]time.Duration, time.Duration) {
	covered := make([]int64, len(l.spans))
	inTree := make([]bool, len(l.spans))
	var rootDur time.Duration
	// A parent is always recorded before its children, so one forward pass
	// settles tree membership.
	for i, s := range l.spans {
		if s.Parent < 0 {
			if inTree[i] = s.Name == rootName; inTree[i] {
				rootDur += time.Duration(s.Dur)
			}
			continue
		}
		inTree[i] = inTree[s.Parent]
		p := l.spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End(), p.End())
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	out := map[string]time.Duration{}
	for i, s := range l.spans {
		if self := s.Dur - covered[i]; inTree[i] && self > 0 {
			out[s.Name] += time.Duration(self)
		}
	}
	return out, rootDur
}

// printSelfTimes prints the self-time table of the trees under rootName,
// by span and by layer, and returns each layer's share of the roots'
// summed duration.
func (l *spanLog) printSelfTimes(title, rootName string) map[string]float64 {
	self, total := l.selfTimes(rootName)
	layers := map[string]time.Duration{}
	for name, d := range self {
		layers[layerOf(name)] += d
	}
	fmt.Printf("\nself time under %s spans: %s (%.1f ms in all)\n", rootName, title, ms(total))
	table := func(m map[string]time.Duration) {
		names := sortedKeys(m)
		sort.SliceStable(names, func(i, j int) bool { return m[names[i]] > m[names[j]] })
		for _, n := range names {
			fmt.Printf("  %-28s %12.3f ms %6.2f %%\n", n, ms(m[n]), 100*ratio(float64(m[n]), float64(total)))
		}
	}
	table(self)
	fmt.Println(" by layer")
	table(layers)
	shares := map[string]float64{}
	for n, d := range layers {
		shares[n] = ratio(float64(d), float64(total))
	}
	return shares
}

// selfOf returns each span's self time within one server-returned span
// list (parents are indexes into the same list).
func selfOf(spans []obs.Span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.Dur)
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			if lo, hi := max(s.Start, p.Start), min(s.End(), p.End()); hi > lo {
				self[s.Parent] -= time.Duration(hi - lo)
			}
		}
	}
	return self
}

// stageName gives a server-recorded span its layer prefix: stage spans
// belong to the pipeline, the coordinator's hop to the remote layer.
func stageName(name string) string {
	if name == "remote" {
		return "remote.hop"
	}
	return "pipeline." + name
}

// jobVec is one job's per-stage time vector, for the similarity report.
type jobVec struct {
	ID     string
	Class  string
	Stages map[string]float64 // stage name -> ms
}

// printDissimilar lists, per job class, the jobs whose per-stage vector
// lies farthest from the class median vector (L1 distance as a share of
// the median vector's sum), with the stage that deviates most. This is
// the similarity analysis of SPMD performance debugging applied to jobs of
// one class: equal work should yield similar vectors, and the outliers
// name the stage to look at.
func printDissimilar(jobs []jobVec, top int) {
	byClass := map[string][]jobVec{}
	for _, j := range jobs {
		byClass[j.Class] = append(byClass[j.Class], j)
	}
	fmt.Printf("\njobs farthest from their class median (per-stage vectors)\n")
	for _, class := range sortedKeys(byClass) {
		js := byClass[class]
		stages := map[string][]float64{}
		for _, j := range js {
			for s, v := range j.Stages {
				stages[s] = append(stages[s], v)
			}
		}
		med := map[string]float64{}
		var medSum float64
		for s, vs := range stages {
			// A stage some jobs lack counts as zero for them.
			for len(vs) < len(js) {
				vs = append(vs, 0)
			}
			med[s] = median(vs)
			medSum += med[s]
		}
		type scored struct {
			id, stage string
			dist, dev float64
		}
		var sc []scored
		for _, j := range js {
			var d, worst float64
			var worstStage string
			for s, m := range med {
				dev := j.Stages[s] - m
				if dev < 0 {
					dev = -dev
				}
				d += dev
				if dev >= worst {
					worst, worstStage = dev, s
				}
			}
			sc = append(sc, scored{j.ID, worstStage, ratio(d, medSum), j.Stages[worstStage] - med[worstStage]})
		}
		sort.SliceStable(sc, func(a, b int) bool { return sc[a].dist > sc[b].dist })
		fmt.Printf("  %s (%d jobs, median vector sum %.3f ms):", class, len(js), medSum)
		for i := 0; i < len(sc) && i < top; i++ {
			fmt.Printf(" %s d=%.2f (%s %+.3f ms)", sc[i].id, sc[i].dist, sc[i].stage, sc[i].dev)
		}
		fmt.Println()
	}
}
