// Package event is a miniature stand-in for the simulator's event
// scheduler. The fixtures import it so the analyzers' receiver checks
// (Queue.At/AtKeep/After in a package whose internal leaf is "event")
// resolve exactly as they do against the real module.
package event

// Cycle is a simulated timestamp.
type Cycle uint64

// TaskRef identifies a scheduled task.
type TaskRef int

// Queue mimics the scheduler's entry points.
type Queue struct{ now Cycle }

// Now returns the current simulated time.
func (q *Queue) Now() Cycle { return q.now }

// At schedules fn at an absolute cycle.
func (q *Queue) At(when Cycle, label string, fn func()) TaskRef {
	q.now = when
	fn()
	return 0
}

// AtKeep schedules a keep-alive task at an absolute cycle.
func (q *Queue) AtKeep(when Cycle, label string, fn func()) TaskRef {
	q.now = when
	fn()
	return 0
}

// After schedules fn a relative number of cycles from now.
func (q *Queue) After(delay Cycle, label string, fn func()) TaskRef {
	return q.At(q.now+delay, label, fn)
}
