// Package memsys defines the interface between the backend's event engine
// and the target-architecture memory models. The paper's backend simulates
// "several levels of caches, memory buses, memory controllers, coherence
// controllers, network and physical devices"; each target (SMP bus,
// CC-NUMA, COMA) implements Model.
package memsys

import (
	"compass/internal/event"
	"compass/internal/mem"
	"compass/internal/stats"
)

// Model is a target memory-system timing model. Implementations are owned
// by the single backend goroutine and need no locking.
type Model interface {
	// Name identifies the model in reports ("simple", "smp", "ccnuma", ...).
	Name() string
	// Access simulates a data reference by cpu to physical address pa at
	// cycle now and returns the completion cycle. Functional data movement
	// is done by the caller; Access only accounts time and coherence state.
	Access(now event.Cycle, cpu int, pa mem.PhysAddr, write bool) event.Cycle
	// AddCounters adds the model's statistics into c under a model prefix.
	AddCounters(c *stats.Counters)
}

// Fixed is the degenerate model: every access completes in a constant
// number of cycles. It is the timing floor used in unit tests and as the
// "uninstrumented" reference.
type Fixed struct {
	Latency  event.Cycle
	Accesses uint64
}

// Name implements Model.
func (f *Fixed) Name() string { return "fixed" }

// Access implements Model.
func (f *Fixed) Access(now event.Cycle, cpu int, pa mem.PhysAddr, write bool) event.Cycle {
	f.Accesses++
	return now + f.Latency
}

// AddCounters implements Model.
func (f *Fixed) AddCounters(c *stats.Counters) {
	c.Inc("fixed.accesses", f.Accesses)
}
