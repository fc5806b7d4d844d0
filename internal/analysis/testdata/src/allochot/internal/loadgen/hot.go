// Package loadgen is the allochot fixture: a worker whose tick is
// bound to the scheduler from a hot package (the fixture's import path
// ends in internal/loadgen), which makes the tick and everything it
// reaches part of the event-dispatch hot set. Allocation-causing
// constructs anywhere in that reachable set are findings; the legal
// forms (pooled backing stores, panic messages, //hot:exempt) stay
// silent.
package loadgen

import (
	"fmt"

	"internal/event"
)

type worker struct {
	q      *event.Queue
	tickFn func()
	buf    []int
}

// newWorker runs at setup time: it is not reachable from the tick, so
// its allocations are legal.
func newWorker(q *event.Queue) *worker {
	w := &worker{q: q, buf: make([]int, 0, 64)}
	w.tickFn = w.tick
	return w
}

// start binds the tick; the binding is what seeds hotness.
func (w *worker) start() {
	w.q.AtKeep(w.q.Now()+1, "tick", w.tickFn)
}

// tick is the per-event path; hotness propagates through every call it
// makes, helper functions included.
func (w *worker) tick() {
	w.step()
	w.badFmt()
	w.goodPanicFmt(1)
	w.badMake()
	w.badLiterals()
	w.badAppend(w.buf)
	w.badConcat("q1")
	w.badConcatAssign("q2")
	w.goodPooled()
	w.schedArgOverlap()
	w.badEmptyWhy()
	w.goodExemptLine()
	w.goodExemptFunc()
	w.badEmptyFuncWhy()
}

// step exists so a finding two hops from the binding proves the
// call-graph propagation.
func (w *worker) step() { w.badNested() }

func (w *worker) badNested() {
	n := 0
	sink := func() { n++ } // want `closure capturing "n" allocates a funcval per evaluation`
	sink()
}

func (w *worker) badFmt() {
	_ = fmt.Sprintf("ev %d", len(w.buf)) // want `fmt\.Sprintf boxes every operand into an interface`
}

// goodPanicFmt allocates only while dying, which is fine.
func (w *worker) goodPanicFmt(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bad index %d", i))
	}
}

func (w *worker) badMake() {
	m := make(map[int]int) // want `make\(map\) allocates`
	m[1] = 1
	s := make([]int, 4) // want `make\(slice\) allocates`
	_ = s
}

func (w *worker) badLiterals() {
	_ = []int{1, 2}       // want `slice literal allocates`
	_ = map[int]int{1: 1} // want `map literal allocates`
}

func (w *worker) badAppend(vals []int) {
	var out []int
	for _, v := range vals {
		out = append(out, v) // want `append to "out", a local slice with no preallocated capacity`
	}
	_ = out
}

func (w *worker) badConcat(label string) string {
	return "ev-" + label // want `string concatenation allocates`
}

func (w *worker) badConcatAssign(label string) {
	s := "ev"
	s += label // want `string concatenation allocates`
	_ = s
}

// goodPooled reuses the struct's backing store: the reslice allocates
// nothing and append stays within the preallocated capacity.
func (w *worker) goodPooled() {
	out := w.buf[:0]
	out = append(out, 1)
	w.buf = out
}

// schedArgOverlap hands a capturing literal straight to the scheduler:
// that allocation is evtclosure's finding, so allochot stays silent
// here rather than double-reporting.
func (w *worker) schedArgOverlap() {
	n := 0
	w.q.After(1, "once", func() { n++ })
}

func (w *worker) badEmptyWhy() {
	//hot:exempt
	_ = fmt.Sprintf("x") // want `//hot:exempt annotation with no justification`
}

// goodExemptLine carries a reviewed line-level justification.
func (w *worker) goodExemptLine() {
	m := make(map[int]int) //hot:exempt one-shot drain table, built at most once per run
	_ = m
}

// goodExemptFunc is silenced wholesale; its callees would still be hot.
//
//hot:exempt cold shutdown summary, never on the steady-state path
func (w *worker) goodExemptFunc() {
	_ = fmt.Sprintf("summary %d", len(w.buf))
}

//hot:exempt
func (w *worker) badEmptyFuncWhy() { // want `has a //hot:exempt annotation with no justification`
	_ = make([]int, 1)
}
