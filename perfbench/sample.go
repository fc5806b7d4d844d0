package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"compass"
	"compass/internal/machine"
	"compass/internal/stats"
)

// outcome is what one simulation produced: the simulated results the
// digest covers, and the counts the per-layer metrics derive from.
type outcome struct {
	model     string
	cycles    uint64
	profile   stats.Profile
	counters  *stats.Counters
	loadTable string
	// loadOffered, loadFailed and loadP99 summarise the open-loop
	// generator's classes (p99 in cycles, the worst class's).
	loadOffered, loadFailed uint64
	loadP99                 float64
	// syscalls counts the kernel calls the OS server executed.
	syscalls             uint64
	poolHits, poolMisses uint64
	ports                int
	cpus                 int
	// frames is the physical frames still allocated when the run ended.
	frames uint64
}

// refs is the number of simulated memory references the run completed:
// the active model's loads plus stores (an RMW counts as a store), or the
// fixed model's access count.
func refs(c *stats.Counters, model string) uint64 {
	if model == "fixed" {
		return c.Get("fixed.accesses")
	}
	return c.Get(model+".loads") + c.Get(model+".stores")
}

func (o *outcome) refs() uint64 { return refs(o.counters, o.model) }

// digest identifies a run's simulated output: its final cycle, its
// Table-1 profile line, every backend counter and the load table. Two runs
// with equal digests simulated the same thing.
func digest(cycles uint64, p stats.Profile, c *stats.Counters, loadTable string) string {
	h := sha256.New()
	fmt.Fprintf(h, "cycles %d\n%s\n", cycles, p)
	io.WriteString(h, c.String())
	io.WriteString(h, loadTable)
	return hex.EncodeToString(h.Sum(nil))
}

func (o *outcome) digest() string { return digest(o.cycles, o.profile, o.counters, o.loadTable) }

func resultDigest(r compass.Result) string {
	return digest(r.Cycles, r.Profile, r.Counters, r.LoadTable)
}

// sample is one timed simulation. Its timestamps bound the benchmark's
// calls into each layer: machine assembly (start to the Config.Observe
// hook), workload loading (to Sim.Run), the run, result collection, and
// the workload's output check.
type sample struct {
	start, assembled, running, ran, collected, checked time.Time

	// cpu is the host user+sys CPU time and allocs the heap allocations
	// spent inside Sim.Run.
	cpu    time.Duration
	allocs uint64
	// baseMiB is the memory the Go runtime held from the operating system
	// when the simulation started, and peakMiB the most it held while the
	// simulation was set up and run.
	baseMiB, peakMiB float64

	seed int64
	// warmup marks a simulation that is checked but not timed.
	warmup bool
	out    outcome
	digest string
	err    error
}

func (s *sample) setup() time.Duration { return s.running.Sub(s.start) }
func (s *sample) run() time.Duration   { return s.ran.Sub(s.running) }

// simulate assembles, runs and checks one simulation of w on the inputs
// of workload seed seed.
func simulate(w workload, seed int64) (s sample) {
	s.seed = seed
	sd := seedsFor(seed)
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("%s: panic: %v", w.name, r)
		}
	}()
	cfg, err := compass.SpecConfig(w.spec)
	if err != nil {
		s.err = err
		return s
	}
	cfg.Observe = func(*machine.Machine) { s.assembled = time.Now() }
	s.baseMiB = newHeldMemory().MiB()
	stop, peak := make(chan struct{}), make(chan float64, 1)
	go watchMemory(stop, peak)
	stopped := false
	defer func() {
		if !stopped {
			close(stop)
		}
	}()
	s.start = time.Now()
	m := machine.New(cfg)
	finish, err := w.load(m, w.spec, sd)
	if err != nil {
		s.err = fmt.Errorf("%s: setup: %w", w.name, err)
		return s
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs, cpu := ms.Mallocs, cpuTime()
	s.running = time.Now()
	end := m.Sim.Run()
	s.ran = time.Now()
	s.cpu = cpuTime() - cpu
	runtime.ReadMemStats(&ms)
	s.allocs = ms.Mallocs - allocs
	close(stop)
	stopped = true
	s.peakMiB = <-peak

	s.out = collect(m, w.result, uint64(end))
	s.collected = time.Now()
	if err := finish(&s.out); err != nil {
		s.err = fmt.Errorf("%s: output check: %w", w.name, err)
	}
	s.digest = s.out.digest()
	s.checked = time.Now()
	return s
}

// collect reads a finished machine's results, as the facade's Result does.
func collect(m *machine.Machine, name string, end uint64) outcome {
	total := m.Sim.TotalAccount()
	o := outcome{
		model:    m.Sim.Model().Name(),
		cycles:   end,
		profile:  stats.ProfileOf(name, &total),
		counters: m.Sim.Counters(),
		ports:    len(m.Sim.Hub().Ports()),
		cpus:     m.Sim.CPUs(),
		frames:   m.Sim.Phys().Allocated(),
	}
	m.FaultCounters(o.counters)
	_, calls := m.OS.SyscallProfile()
	for _, n := range calls {
		o.syscalls += n
	}
	return o
}

// cpuTime is the process's host user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memoryPoll is how often watchMemory reads the runtime's memory: often
// enough to catch a heap that grows for hundreds of milliseconds between
// collections, rarely enough to cost the simulation nothing measurable.
const memoryPoll = 5 * time.Millisecond

// heldMemory reads how much memory the Go runtime holds from the
// operating system: mapped and not returned to it. That is the heap,
// stacks and runtime metadata, the resident memory the program controls.
// Reading does not allocate, so polling does not show in allocs_per_ref.
type heldMemory []metrics.Sample

func newHeldMemory() heldMemory {
	return heldMemory{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
}

func (h heldMemory) MiB() float64 {
	metrics.Read(h)
	return float64(h[0].Value.Uint64()-h[1].Value.Uint64()) / (1 << 20)
}

// watchMemory polls the held memory until stop is closed, then sends the
// highest reading on peak, which must have room for it.
func watchMemory(stop <-chan struct{}, peak chan<- float64) {
	held := newHeldMemory()
	tick := time.NewTicker(memoryPoll)
	defer tick.Stop()
	var max float64
	for {
		max = math.Max(max, held.MiB())
		select {
		case <-stop:
			peak <- max
			return
		case <-tick.C:
		}
	}
}
