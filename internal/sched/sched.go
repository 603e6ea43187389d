// Package sched is the speedup-estimation substrate standing in for the
// paper's manual parallelization experiments on a 16/32-core testbed
// (Tables 4.2, 4.5, 4.7 and Figure 4.11). It simulates executing the
// dependence structure a suggestion exposes — independent loop iterations,
// task graphs, or pipelines — on P workers with a greedy list scheduler,
// returning the speedup the structure implies. Absolute wall-clock numbers
// are testbed properties; who speeds up, by roughly what factor, and where
// scaling saturates are properties of the dependence structure, which is
// what this simulator evaluates.
package sched

import (
	"container/heap"
	"math"
)

// DOALLSpeedup returns the speedup of running iters independent iterations
// of perIter work each on p workers, with a per-task scheduling overhead
// fraction (relative to perIter work, e.g. 0.02 for 2%). A loop with fewer
// than two iterations has nothing to distribute: it runs sequentially and
// pays no scheduling overhead, so the result is never below 1.
func DOALLSpeedup(iters int64, perIter float64, p int, overhead float64) float64 {
	if iters < 2 || perIter == 0 || p <= 1 {
		return 1
	}
	seq := float64(iters) * perIter
	perTask := perIter * (1 + overhead)
	chunks := math.Ceil(float64(iters) / float64(p))
	par := chunks * perTask
	if par <= 0 {
		return 1
	}
	return seq / par
}

// Task is one node of a task graph to schedule.
type Task struct {
	Work float64
	Deps []int // indices of tasks that must finish first
}

// ListSchedule runs greedy list scheduling of the task DAG on p workers and
// returns (makespan, sequentialWork). Ready tasks are started on the
// earliest-available worker, heaviest first.
func ListSchedule(tasks []Task, p int) (makespan, seqWork float64) {
	n := len(tasks)
	if n == 0 || p < 1 {
		return 0, 0
	}
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i, t := range tasks {
		seqWork += t.Work
		for _, d := range t.Deps {
			succs[d] = append(succs[d], i)
			indeg[i]++
		}
	}
	finish := make([]float64, n)
	// Worker availability min-heap.
	workers := make(workerHeap, p)
	heap.Init(&workers)
	// Ready queue ordered by descending work (LPT heuristic), tie-broken
	// by index for determinism.
	ready := &taskHeap{tasks: tasks}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			heap.Push(ready, i)
		}
	}
	// Earliest time each task becomes ready (all deps finished).
	readyAt := make([]float64, n)
	scheduled := 0
	for ready.Len() > 0 {
		ti := heap.Pop(ready).(int)
		w := heap.Pop(&workers).(float64)
		start := math.Max(w, readyAt[ti])
		finish[ti] = start + tasks[ti].Work
		heap.Push(&workers, finish[ti])
		if finish[ti] > makespan {
			makespan = finish[ti]
		}
		scheduled++
		for _, s := range succs[ti] {
			if finish[ti] > readyAt[s] {
				readyAt[s] = finish[ti]
			}
			indeg[s]--
			if indeg[s] == 0 {
				heap.Push(ready, s)
			}
		}
	}
	if scheduled != n {
		// Cyclic input: treat as fully sequential.
		return seqWork, seqWork
	}
	return makespan, seqWork
}

// TaskGraphSpeedup returns seqWork / makespan for the task DAG on p workers.
func TaskGraphSpeedup(tasks []Task, p int) float64 {
	ms, seq := ListSchedule(tasks, p)
	if ms == 0 {
		return 1
	}
	return seq / ms
}

// PipelineSpeedup models a DOACROSS/pipeline execution: items flow through
// stages with the given per-item stage weights; sequential stages (marked
// true) process items one at a time in order, parallel stages use all
// remaining workers. The classic bound is
// seq / (fill + items * bottleneckStage).
func PipelineSpeedup(stageWeights []float64, sequentialStage []bool, items int64, p int) float64 {
	if len(stageWeights) == 0 || items == 0 {
		return 1
	}
	var perItem float64
	for _, w := range stageWeights {
		perItem += w
	}
	seq := perItem * float64(items)
	if p <= 1 {
		return 1
	}
	// Effective stage time: a parallel stage with k workers processes k
	// items concurrently. Distribute the p workers: one per sequential
	// stage, remainder split over parallel stages.
	nSeq := 0
	for _, s := range sequentialStage {
		if s {
			nSeq++
		}
	}
	nPar := len(stageWeights) - nSeq
	parWorkers := p - nSeq
	if parWorkers < 1 {
		parWorkers = 1
	}
	bottleneck := 0.0
	for i, w := range stageWeights {
		eff := w
		if !sequentialStage[i] && nPar > 0 {
			share := float64(parWorkers) / float64(nPar)
			if share > 1 {
				eff = w / share
			}
		}
		if eff > bottleneck {
			bottleneck = eff
		}
	}
	fill := perItem // one pass through the pipeline
	par := fill + bottleneck*float64(items-1)
	if par <= 0 {
		return 1
	}
	sp := seq / par
	return math.Max(1, math.Min(sp, float64(p)))
}

type workerHeap []float64

func (h workerHeap) Len() int            { return len(h) }
func (h workerHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h workerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *workerHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *workerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type taskHeap struct {
	tasks []Task
	idx   []int
}

func (h *taskHeap) Len() int { return len(h.idx) }
func (h *taskHeap) Less(i, j int) bool {
	a, b := h.idx[i], h.idx[j]
	if h.tasks[a].Work != h.tasks[b].Work {
		return h.tasks[a].Work > h.tasks[b].Work
	}
	return a < b
}
func (h *taskHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *taskHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int)) }
func (h *taskHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}
