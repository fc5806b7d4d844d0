package compass

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"compass/internal/event"
)

// CoreBenchWorkload is the single-run throughput record for one workload:
// the paper's figure of merit (how fast the simulator burns simulated
// cycles) plus the event rate and the allocation cost per event that the
// calendar-queue/pooling engine is built to hold at zero.
type CoreBenchWorkload struct {
	// Name identifies the workload (tpcc, specweb, tpcd, tier3).
	Name string `json:"name"`
	// SimCycles is the simulated cycles covered by the run.
	SimCycles uint64 `json:"sim_cycles"`
	// Events is the backend task count (the dispatched-event total).
	Events uint64 `json:"events"`
	// HostSeconds is the run's host wall time.
	HostSeconds float64 `json:"host_seconds"`
	// SimCyclesPerSec is SimCycles / HostSeconds — the end-to-end speed.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	// EventsPerSec is Events / HostSeconds.
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocsPerEvent is heap allocations during the run divided by Events
	// (runtime.MemStats Mallocs delta; whole-simulator, not just the
	// queue, so frontends and workload code are included).
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// AllocsPerEventGate is the enforced ceiling for AllocsPerEvent: the
	// bench fails when the measurement exceeds it, so allocation
	// regressions on the event hot path surface as a red bench run rather
	// than a slow drift in the artifact history.
	AllocsPerEventGate float64 `json:"allocs_per_event_gate"`
	// EventsPerSecGate is the enforced floor for EventsPerSec. It is set
	// far below warm local measurements (shared CI runners are slow and
	// noisy) but high enough that an accidental algorithmic cliff on the
	// dispatch path — a linear scan in the queue, an O(n²) retire loop —
	// fails the bench instead of just inflating the artifact history.
	EventsPerSecGate float64 `json:"events_per_sec_gate"`
}

// coreAllocGates pins the per-workload allocation budget. Set with ~35%
// headroom over the pooled measurements (TPCC ≈10.3 after the syscall
// closure and row-buffer pooling, SPECWeb ≈5.6, tier3 ≈11.7) — loose
// enough for runtime jitter, tight enough that reintroducing a per-event
// allocation (one closure per syscall alone was ~13/event on TPCC) trips
// the gate. TPC-D measures ≈116: the decision-support scan frontend
// builds row batches per backend task by design, so its gate budgets
// that frontend cost rather than pretending the path is pooled.
var coreAllocGates = map[string]float64{
	"tpcc":    14,
	"specweb": 8,
	"tpcd":    150,
	"tier3":   16,
}

// coreEventRateGates pins the events/sec floor per workload. Floors sit
// at roughly a fifth of the slowest warm local measurement (TPCC ≈4.8k,
// SPECWeb ≈116k, TPC-D ≈5.8k, tier3 ≈71k): a cold shared runner loses
// 2–3x, an accidental O(n²) on the dispatch path loses far more.
var coreEventRateGates = map[string]float64{
	"tpcc":    900,
	"specweb": 20_000,
	"tpcd":    1_100,
	"tier3":   12_000,
}

// coreTier3Requests sizes the tier3 bench leg: enough requests that the
// three-tier pipeline reaches steady state and the per-event figures
// stabilize, small enough to keep the bench under CI budget.
const coreTier3Requests = 120

// CoreBench is the single-run performance record written as
// BENCH_core.json: the heap-vs-calendar dispatch microbenchmark (the
// before/after of the engine rewrite) plus end-to-end workload throughput.
type CoreBench struct {
	// HostCores is runtime.GOMAXPROCS(0) at measurement time.
	HostCores int `json:"host_cores"`
	// MicroEvents is the dispatch count of each microbenchmark leg.
	MicroEvents int `json:"micro_events"`
	// HeapEventsPerSec is the reference binary-heap engine's dispatch rate
	// on the steady schedule-from-dispatch workload (the "before").
	HeapEventsPerSec float64 `json:"heap_events_per_sec"`
	// CalendarEventsPerSec is the calendar queue's rate on the identical
	// workload (the "after").
	CalendarEventsPerSec float64 `json:"calendar_events_per_sec"`
	// MicroSpeedup is CalendarEventsPerSec / HeapEventsPerSec; the ISSUE
	// gate is >= 1.5.
	MicroSpeedup float64 `json:"micro_speedup"`
	// Workloads holds the end-to-end runs.
	Workloads []CoreBenchWorkload `json:"workloads"`
}

// coreMicroEvents sizes the microbenchmark: large enough that per-call
// timer noise vanishes, small enough for CI.
const coreMicroEvents = 2_000_000

// runCalendarMicro measures the calendar queue's dispatch rate on the
// steady workload: `depth` tasks in flight, each dispatch scheduling its
// replacement a short delta ahead — the device-completion pattern that
// dominates the backend queue.
func runCalendarMicro(events int) float64 {
	q := event.NewQueue()
	var fn func()
	fn = func() { q.After(800, "t", fn) }
	for i := 0; i < 64; i++ {
		q.After(event.Cycle(i%800)+1, "t", fn)
	}
	t0 := time.Now()
	for i := 0; i < events; i++ {
		q.Step()
	}
	return float64(events) / time.Since(t0).Seconds()
}

// runHeapMicro is runCalendarMicro against the retained reference heap.
func runHeapMicro(events int) float64 {
	q := event.NewHeapQueue()
	var fn func()
	fn = func() { q.After(800, "t", fn) }
	for i := 0; i < 64; i++ {
		q.After(event.Cycle(i%800)+1, "t", fn)
	}
	t0 := time.Now()
	for i := 0; i < events; i++ {
		q.Step()
	}
	return float64(events) / time.Since(t0).Seconds()
}

// measureWorkload runs one workload with allocation accounting around it.
func measureWorkload(name string, run func() Result) CoreBenchWorkload {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := run()
	runtime.ReadMemStats(&after)

	w := CoreBenchWorkload{
		Name:        name,
		SimCycles:   res.Cycles,
		Events:      res.Counters.Get("backend.tasks"),
		HostSeconds: res.Wall.Seconds(),
	}
	if w.HostSeconds > 0 {
		w.SimCyclesPerSec = float64(w.SimCycles) / w.HostSeconds
		w.EventsPerSec = float64(w.Events) / w.HostSeconds
	}
	if w.Events > 0 {
		w.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(w.Events)
	}
	w.AllocsPerEventGate = coreAllocGates[name]
	w.EventsPerSecGate = coreEventRateGates[name]
	return w
}

// RunCoreBench measures single-run engine throughput: the heap-vs-calendar
// dispatch microbenchmark, then TPCC, SPECWeb, TPC-D, and the three-tier
// workload end to end. The heap leg runs first and the calendar leg
// second, so the calendar cannot look faster merely from a warmed host.
func RunCoreBench(cfg Config) (CoreBench, error) {
	b := CoreBench{
		HostCores:   runtime.GOMAXPROCS(0),
		MicroEvents: coreMicroEvents,
	}

	b.HeapEventsPerSec = runHeapMicro(coreMicroEvents)
	b.CalendarEventsPerSec = runCalendarMicro(coreMicroEvents)
	if b.HeapEventsPerSec > 0 {
		b.MicroSpeedup = b.CalendarEventsPerSec / b.HeapEventsPerSec
	}

	b.Workloads = append(b.Workloads, measureWorkload("tpcc", func() Result {
		return RunTPCC(cfg, DefaultTPCC())
	}))
	b.Workloads = append(b.Workloads, measureWorkload("specweb", func() Result {
		return RunSPECWeb(cfg, DefaultSPECWeb(), 4, 8)
	}))
	b.Workloads = append(b.Workloads, measureWorkload("tpcd", func() Result {
		return RunTPCD(cfg, DefaultTPCD())
	}))
	b.Workloads = append(b.Workloads, measureWorkload("tier3", func() Result {
		return RunTier3(cfg, DefaultTier3(), coreTier3Requests)
	}))
	for _, w := range b.Workloads {
		if w.AllocsPerEventGate > 0 && w.AllocsPerEvent > w.AllocsPerEventGate {
			return b, fmt.Errorf("%s allocates %.1f/event, above the %.1f gate: something on the event hot path allocates again",
				w.Name, w.AllocsPerEvent, w.AllocsPerEventGate)
		}
		if w.EventsPerSecGate > 0 && w.EventsPerSec < w.EventsPerSecGate {
			return b, fmt.Errorf("%s dispatches %.3g events/s, below the %.3g floor: the event path got drastically slower",
				w.Name, w.EventsPerSec, w.EventsPerSecGate)
		}
	}
	return b, nil
}

// WriteFile writes the bench record as indented JSON.
func (b CoreBench) WriteFile(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// String is a short human summary.
func (b CoreBench) String() string {
	s := fmt.Sprintf("event queue: heap %.2gM ev/s, calendar %.2gM ev/s — %.2fx",
		b.HeapEventsPerSec/1e6, b.CalendarEventsPerSec/1e6, b.MicroSpeedup)
	for _, w := range b.Workloads {
		s += fmt.Sprintf("\n%-8s %.3g sim cycles/s, %.3g ev/s (floor %.3g), %.1f allocs/ev (gate %.1f, %.2fs host)",
			w.Name, w.SimCyclesPerSec, w.EventsPerSec, w.EventsPerSecGate, w.AllocsPerEvent, w.AllocsPerEventGate, w.HostSeconds)
	}
	return s
}
