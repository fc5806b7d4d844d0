// Package event implements the backend's global event scheduler: a
// deterministic discrete-event task queue ordered by simulation cycle.
//
// The paper's backend creates a task for every frontend event and inserts it
// into a "global event scheduler with a time stamp indicating at which global
// simulation cycle the task is to be dispatched"; tasks may spawn further
// tasks (bus transactions, directory messages, disk completions). This
// package is that scheduler. Ties are broken by insertion sequence so a
// simulation is reproducible regardless of host scheduling.
//
// The queue is a calendar queue tuned for the simulator's single hottest
// path: a ring of per-cycle buckets covers the near future (schedule and
// dispatch are O(1) amortized, no heap reshuffling, no interface boxing),
// and a binary min-heap holds the far-future overflow (daemon timers, disk
// completions). Tasks come from a free list and are recycled after dispatch
// or cancellation; a per-task generation counter makes stale TaskRef
// handles inert, so Cancel after run is a safe no-op even under reuse.
//
// Determinism argument: dispatch order is exactly ascending (when, seq).
// Within a ring bucket, tasks appear in seq order because (a) a cycle's
// bucket only receives direct appends once the cycle is inside the ring
// window, and the window's lower edge (now) only advances, so all overflow
// tasks for that cycle migrate — in (when, seq) heap order — before any
// later-seq direct append; and (b) seq increases monotonically across all
// schedules. The overflow heap orders by (when, seq) explicitly. The ring
// always holds strictly earlier cycles than the overflow (migration
// restores the window invariant on every clock advance), so the earliest
// pending task is the head of the current bucket, the first task of the
// next live bucket, or the overflow top, in that order of preference.
package event

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in target-processor cycles.
type Cycle uint64

const (
	// ringWindow is the calendar span in cycles: tasks closer than this to
	// the current cycle live in per-cycle buckets, the rest in the overflow
	// heap. Must be a power of two.
	ringWindow = 4096
	ringMask   = ringWindow - 1
	bitWords   = ringWindow / 64
)

type taskState uint8

const (
	stateFree taskState = iota
	stateRing
	stateOverflow
)

// Task is a unit of backend work dispatched at a fixed simulation cycle.
// Tasks are pooled: after dispatch or cancellation the struct returns to
// the queue's free list and its generation counter advances, so holders of
// a stale TaskRef cannot disturb the task's next life.
type Task struct {
	when  Cycle
	seq   uint64
	gen   uint64
	fn    func()
	label string
	state taskState
	keep  bool
}

// TaskRef is a handle to a scheduled task. The zero TaskRef is valid and
// refers to nothing. A ref goes stale as soon as the task runs or is
// cancelled; every operation on a stale ref is a no-op, enforced by the
// generation counter rather than by the holder's discipline.
type TaskRef struct {
	t   *Task
	gen uint64
}

// Pending reports whether the referenced task is still scheduled.
func (r TaskRef) Pending() bool {
	return r.t != nil && r.t.gen == r.gen && r.t.state != stateFree
}

// When returns the cycle the task is scheduled at, or 0 when the ref is
// stale.
func (r TaskRef) When() Cycle {
	if !r.Pending() {
		return 0
	}
	return r.t.when
}

// Label returns the diagnostic label given at scheduling time, or "" when
// the ref is stale.
func (r TaskRef) Label() string {
	if !r.Pending() {
		return ""
	}
	return r.t.label
}

// bucket holds every pending task of one cycle inside the ring window, in
// schedule (seq) order. Only the current bucket is ever partially drained;
// its consumed prefix is tracked by Queue.cur.
type bucket struct {
	tasks []*Task
}

// Queue is the global event scheduler. It is not safe for concurrent use;
// the backend owns it exclusively.
type Queue struct {
	now        Cycle
	seq        uint64
	dispatched uint64

	// ring[c&ringMask] holds the pending tasks at cycle c for every c in
	// [now, now+ringWindow). liveBits mirrors bucket occupancy so the next
	// live bucket is found with word-level bit scans.
	ring     [ringWindow]bucket
	cur      int // consumed prefix of the current bucket (cycle == now)
	ringLive int
	liveBits [bitWords]uint64

	// over is a binary min-heap on (when, seq) of tasks at or beyond the
	// ring horizon; they migrate into the ring as the clock advances.
	over []*Task

	// memo caches the earliest pending task between structural changes.
	memo *Task

	// keepAlive counts pending tasks scheduled via AtKeep (the backend's
	// non-daemon tasks, which keep the simulation running).
	keepAlive int //ckpt:skip checkpoints are quiescent (KeepAlive == 0); restore re-arms daemons with At

	free []*Task //ckpt:skip task free list, host-side recycling scratch

	// trace, when enabled, records the last len(trace) dispatched tasks for
	// post-mortem diagnosis (the guard layer's livelock classifier). It is
	// host-side observability only: recording never changes dispatch order,
	// and a disabled ring costs one nil check per dispatch.
	trace    []DispatchRecord //ckpt:skip host-side post-mortem diagnostics, no simulation effect
	tracePos int              //ckpt:skip host-side post-mortem diagnostics, no simulation effect
	traceLen int              //ckpt:skip host-side post-mortem diagnostics, no simulation effect
}

// DispatchRecord is one entry of the post-mortem dispatch ring: which task
// label ran at which cycle.
type DispatchRecord struct {
	When  Cycle
	Label string
}

// EnableTrace starts recording the last k dispatched tasks into a ring
// buffer. k <= 0 disables tracing. The ring is diagnostic state only: it is
// excluded from snapshots and has no effect on scheduling.
func (q *Queue) EnableTrace(k int) {
	if k <= 0 {
		q.trace, q.tracePos, q.traceLen = nil, 0, 0
		return
	}
	q.trace = make([]DispatchRecord, k)
	q.tracePos, q.traceLen = 0, 0
}

// RecentDispatches returns the ring's contents oldest-first (at most the
// trace capacity). The queue is single-owner; call only when the backend is
// not running (post-abort or post-run).
func (q *Queue) RecentDispatches() []DispatchRecord {
	if q.trace == nil || q.traceLen == 0 {
		return nil
	}
	out := make([]DispatchRecord, 0, q.traceLen)
	start := 0
	if q.traceLen == len(q.trace) {
		start = q.tracePos
	}
	for i := 0; i < q.traceLen; i++ {
		out = append(out, q.trace[(start+i)%len(q.trace)])
	}
	return out
}

// NewQueue returns an empty scheduler starting at cycle 0.
func NewQueue() *Queue { return &Queue{} }

// Now returns the current global simulation cycle, i.e. the timestamp of the
// most recently dispatched task.
func (q *Queue) Now() Cycle { return q.now }

// Len reports the number of pending tasks.
func (q *Queue) Len() int { return q.ringLive + len(q.over) }

// Dispatched reports how many tasks have been executed so far.
func (q *Queue) Dispatched() uint64 { return q.dispatched }

// KeepAlive reports how many pending tasks were scheduled with AtKeep.
func (q *Queue) KeepAlive() int { return q.keepAlive }

func (q *Queue) alloc() *Task {
	if n := len(q.free); n > 0 {
		t := q.free[n-1]
		q.free = q.free[:n-1]
		return t
	}
	return &Task{}
}

// recycle returns a task to the free list. Bumping the generation makes
// every outstanding TaskRef to this life of the task stale.
func (q *Queue) recycle(t *Task) {
	t.gen++
	t.fn = nil
	t.label = ""
	t.state = stateFree
	q.free = append(q.free, t)
}

func (q *Queue) setLive(p int) { q.liveBits[p>>6] |= 1 << uint(p&63) }
func (q *Queue) clrLive(p int) { q.liveBits[p>>6] &^= 1 << uint(p&63) }

// At schedules fn to run at absolute cycle when. Scheduling in the past
// (before Now) is a simulator bug and panics.
func (q *Queue) At(when Cycle, label string, fn func()) TaskRef {
	return q.schedule(when, label, false, fn)
}

// AtKeep is At for tasks that participate in keep-alive accounting: the
// backend runs until every process has exited and KeepAlive is zero.
// Dispatch and Cancel both release the count.
func (q *Queue) AtKeep(when Cycle, label string, fn func()) TaskRef {
	return q.schedule(when, label, true, fn)
}

// After schedules fn to run delay cycles from now.
func (q *Queue) After(delay Cycle, label string, fn func()) TaskRef {
	return q.At(q.now+delay, label, fn)
}

func (q *Queue) schedule(when Cycle, label string, keep bool, fn func()) TaskRef {
	if when < q.now {
		panic(fmt.Sprintf("event: task %q scheduled at %d, before now %d (next seq %d, %d pending)",
			label, when, q.now, q.seq, q.Len()))
	}
	t := q.alloc()
	t.when = when
	t.seq = q.seq
	t.fn = fn
	t.label = label
	t.keep = keep
	q.seq++
	if keep {
		q.keepAlive++
	}
	q.place(t)
	if q.memo != nil && taskLess(t, q.memo) {
		q.memo = t
	}
	return TaskRef{t: t, gen: t.gen}
}

// place inserts a task whose when/seq are already assigned into the right
// container (also the migration and SetState re-bucketing path).
func (q *Queue) place(t *Task) {
	if t.when < q.now+ringWindow {
		t.state = stateRing
		p := int(t.when & ringMask)
		b := &q.ring[p]
		b.tasks = append(b.tasks, t)
		q.ringLive++
		q.setLive(p)
	} else {
		t.state = stateOverflow
		q.overPush(t)
	}
}

func taskLess(a, b *Task) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *Queue) overPush(t *Task) {
	q.over = append(q.over, t)
	i := len(q.over) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !taskLess(q.over[i], q.over[p]) {
			break
		}
		q.over[i], q.over[p] = q.over[p], q.over[i]
		i = p
	}
}

// overRemove deletes the element at index i, preserving heap order.
func (q *Queue) overRemove(i int) {
	n := len(q.over) - 1
	q.over[i] = q.over[n]
	q.over[n] = nil
	q.over = q.over[:n]
	if i == n {
		return
	}
	// Sift down, then up (the swapped-in element may beat its new parent).
	for {
		l, r, s := 2*i+1, 2*i+2, i
		if l < n && taskLess(q.over[l], q.over[s]) {
			s = l
		}
		if r < n && taskLess(q.over[r], q.over[s]) {
			s = r
		}
		if s == i {
			break
		}
		q.over[i], q.over[s] = q.over[s], q.over[i]
		i = s
	}
	for i > 0 {
		p := (i - 1) / 2
		if !taskLess(q.over[i], q.over[p]) {
			break
		}
		q.over[i], q.over[p] = q.over[p], q.over[i]
		i = p
	}
}

// Cancel removes a pending task. It is a no-op if the task already ran or
// was cancelled before — a stale ref's generation no longer matches, so a
// recycled Task cannot be cancelled out of its next life by an old holder.
func (q *Queue) Cancel(ref TaskRef) {
	t := ref.t
	if t == nil || t.gen != ref.gen || t.state == stateFree {
		return
	}
	switch t.state {
	case stateRing:
		p := int(t.when & ringMask)
		b := &q.ring[p]
		// The consumed prefix of the current bucket holds no pending tasks,
		// so a pending ring task always sits at or past the cursor.
		lo := 0
		if t.when == q.now {
			lo = q.cur
		}
		for i := lo; ; i++ {
			if b.tasks[i] == t {
				copy(b.tasks[i:], b.tasks[i+1:])
				b.tasks[len(b.tasks)-1] = nil
				b.tasks = b.tasks[:len(b.tasks)-1]
				break
			}
		}
		q.ringLive--
		if len(b.tasks) == lo {
			q.clrLive(p)
		}
	case stateOverflow:
		for i, u := range q.over {
			if u == t {
				q.overRemove(i)
				break
			}
		}
	}
	if t.keep {
		q.keepAlive--
	}
	if q.memo == t {
		q.memo = nil
	}
	q.recycle(t)
}

// nextLiveBucket returns the ring position of the nearest live bucket in
// circular cycle order strictly after the current bucket. The caller
// guarantees a live bucket exists.
func (q *Queue) nextLiveBucket() int {
	p := (int(q.now&ringMask) + 1) & ringMask
	w := p >> 6
	word := q.liveBits[w] & (^uint64(0) << uint(p&63))
	for {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
		w = (w + 1) & (bitWords - 1)
		word = q.liveBits[w]
	}
}

// nextLive returns the earliest pending task without dispatching it, or nil
// when the queue is empty.
func (q *Queue) nextLive() *Task {
	if q.memo != nil {
		return q.memo
	}
	var t *Task
	switch {
	case q.cur < len(q.ring[q.now&ringMask].tasks):
		t = q.ring[q.now&ringMask].tasks[q.cur]
	case q.ringLive > 0:
		t = q.ring[q.nextLiveBucket()].tasks[0]
	case len(q.over) > 0:
		t = q.over[0]
	default:
		return nil
	}
	q.memo = t
	return t
}

// NextTime returns the timestamp of the earliest pending task. ok is false
// when the queue is empty.
func (q *Queue) NextTime() (when Cycle, ok bool) {
	t := q.nextLive()
	if t == nil {
		return 0, false
	}
	return t.when, true
}

// advanceTo moves the clock to c, resets the drained current bucket, and
// pulls newly in-window overflow tasks into the ring. The caller guarantees
// no task is pending before c.
func (q *Queue) advanceTo(c Cycle) {
	if c == q.now {
		return
	}
	b := &q.ring[q.now&ringMask]
	clear(b.tasks)
	b.tasks = b.tasks[:0]
	q.cur = 0
	q.now = c
	horizon := q.now + ringWindow
	for len(q.over) > 0 && q.over[0].when < horizon {
		t := q.over[0]
		q.overRemove(0)
		q.place(t)
	}
}

// Step dispatches the earliest task, advancing the clock to its timestamp.
// It reports false when the queue is empty.
func (q *Queue) Step() bool {
	t := q.nextLive()
	if t == nil {
		return false
	}
	q.memo = nil
	if t.when != q.now {
		q.advanceTo(t.when)
	}
	p := int(q.now & ringMask)
	b := &q.ring[p]
	// After the advance (or when t was already due) the earliest task is
	// the head of the current bucket: overflow migration appends the heap
	// minimum first, and bucket order is seq order.
	b.tasks[q.cur] = nil
	q.cur++
	q.ringLive--
	if q.cur == len(b.tasks) {
		q.clrLive(p)
	}
	if t.keep {
		q.keepAlive--
	}
	q.dispatched++
	if q.trace != nil {
		q.trace[q.tracePos] = DispatchRecord{When: t.when, Label: t.label}
		q.tracePos = (q.tracePos + 1) % len(q.trace)
		if q.traceLen < len(q.trace) {
			q.traceLen++
		}
	}
	fn := t.fn
	q.recycle(t)
	fn()
	return true
}

// RunUntil dispatches tasks in time order until the queue is empty or the
// next task lies strictly beyond limit. It returns the number dispatched.
func (q *Queue) RunUntil(limit Cycle) int {
	n := 0
	for {
		when, ok := q.NextTime()
		if !ok || when > limit {
			return n
		}
		q.Step()
		n++
	}
}

// Advance moves the clock forward to when without dispatching anything.
// It panics if tasks are pending before when, or when is in the past.
func (q *Queue) Advance(when Cycle) {
	if when < q.now {
		panic(fmt.Sprintf("event: Advance to %d, before now %d", when, q.now))
	}
	if t := q.nextLive(); t != nil && t.when < when {
		panic(fmt.Sprintf("event: Advance to %d would skip task %q at %d", when, t.label, t.when))
	}
	q.memo = nil
	q.advanceTo(when)
	q.memo = nil
}
