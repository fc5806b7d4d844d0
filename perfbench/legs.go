package main

import (
	"fmt"
	"math/rand"
	"time"

	"compass"
	"compass/internal/comm"
	"compass/internal/event"
	"compass/internal/machine"
	"compass/internal/mem"
)

// The isolation legs time one layer's public calls away from the rest of
// the simulator, on inputs shaped by a workload's own counts. Each leg
// is repeated legReps times and reports the median host ns per call.
const legReps = 5

// timeLeg runs leg reps times and returns the median ns per operation;
// leg does its own set-up and returns the operations it timed and how
// long they took.
func timeLeg(leg func() (ops int, d time.Duration)) float64 {
	var ns []float64
	for r := 0; r < legReps; r++ {
		ops, d := leg()
		ns = append(ns, float64(d.Nanoseconds())/float64(ops))
	}
	return median(ns)
}

// roundTrip times Port.Post answered by the backend's Hub.Scan and
// Port.Reply, with one frontend posting and the rest of the workload's
// ports blocked, through the same sleep/wake protocol the backend loop
// uses.
func roundTrip(ports, ops int) (int, time.Duration) {
	h := comm.NewHub(1)
	poster := h.NewPort(comm.StateRunning)
	for i := 1; i < ports; i++ {
		h.NewPort(comm.StateBlocked)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.Lock()
		defer h.Unlock()
		armed := false
		for {
			pick, _, _, _ := h.Scan()
			switch {
			case pick != nil && pick.Pending().Kind == comm.KExit:
				pick.ReplyExit(comm.Reply{Done: pick.Pending().Time})
				return
			case pick != nil:
				pick.Reply(comm.Reply{Done: pick.Pending().Time + 1})
				armed = false
			case !armed:
				h.ArmWait()
				armed = true
			default:
				h.WaitBackend()
				armed = false
			}
		}
	}()
	start := time.Now()
	var t event.Cycle
	for i := 0; i < ops; i++ {
		t = poster.Post(comm.Event{Kind: comm.KMem, Time: t}).Done
	}
	d := time.Since(start)
	poster.Post(comm.Event{Kind: comm.KExit, Time: t})
	<-done
	return ops, d
}

// scan times Hub.Scan over the workload's port count, one port running,
// one posted and the rest blocked.
func scan(ports, ops int) (int, time.Duration) {
	h := comm.NewHub(1)
	for i := 0; i < ports; i++ {
		p := h.NewPort(comm.StateBlocked)
		switch i {
		case 0:
			p.SetState(comm.StateRunning)
			p.Publish(1)
		case 1:
			p.SetState(comm.StatePosted)
		}
	}
	h.Lock()
	defer h.Unlock()
	start := time.Now()
	for i := 0; i < ops; i++ {
		scanSink, _, _, _ = h.Scan()
	}
	return ops, time.Since(start)
}

var scanSink *comm.Port

// taskChain keeps a fixed number of tasks pending in a queue: each
// dispatched task schedules its successor, with delays cycling through a
// seeded table.
type taskChain struct {
	q      *event.Queue
	delays []event.Cycle
	i      int
	fire   func()
}

func (c *taskChain) next() {
	c.i++
	c.q.After(c.delays[c.i%len(c.delays)], "leg", c.fire)
}

// tasksLeg times Queue.After plus Queue.Step with depth tasks pending and
// delays uniform over twice the mean gap that gives the workload's own
// dispatch rate (cycles per task) at that depth.
func tasksLeg(rng *rand.Rand, depth int, cyclesPerTask float64, ops int) (int, time.Duration) {
	mean := cyclesPerTask * float64(depth)
	c := &taskChain{q: event.NewQueue(), delays: make([]event.Cycle, 4096)}
	for i := range c.delays {
		c.delays[i] = event.Cycle(1 + rng.Float64()*2*mean)
	}
	c.fire = c.next
	for i := 0; i < depth; i++ {
		c.next()
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		c.q.Step()
	}
	return ops, time.Since(start)
}

// translate times Space.Translate plus the Physical.Touch the backend
// makes on every reference, over a heap of the run's footprint with the
// run's store share.
func translate(rng *rand.Rand, frames uint64, storeShare float64, ops int) (int, time.Duration) {
	phys := mem.NewPhysical(frames, 1, mem.PlaceRoundRobin)
	sp := mem.NewSpace(phys)
	base, err := sp.Sbrk(uint32(frames * mem.PageSize))
	if err != nil {
		panic(fmt.Sprintf("translate leg: %v", err))
	}
	va := make([]mem.VirtAddr, 1<<16)
	write := make([]bool, len(va))
	for i := range va {
		va[i] = base + mem.VirtAddr(rng.Int63n(int64(frames*mem.PageSize)))&^7
		write[i] = rng.Float64() < storeShare
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		j := i & (len(va) - 1)
		pa, f := sp.Translate(va[j], write[j])
		if f != nil {
			panic(f)
		}
		phys.Touch(pa.Frame(), 0)
	}
	return ops, time.Since(start)
}

// stream is a seeded reference stream shaped like a workload: its store
// share (RMWs included), its footprint, its L1 reuse and its sharing.
type stream struct {
	cpu   []uint8
	pa    []mem.PhysAddr
	write []bool
	gap   event.Cycle
}

// lineSize is the coherence unit the stream reasons in; every model's L1
// line is at least this large.
const lineSize = 32

// newStream draws n references over frames. A reference re-touches one of
// its CPU's recent lines with probability reuse (temporal locality that
// hits in L1), touches a small region all CPUs share with probability
// shared (coherence traffic), and otherwise a line anywhere in the
// footprint.
func newStream(rng *rand.Rand, cpus int, frames []uint64, n int, storeShare, reuse, shared float64, gap event.Cycle) *stream {
	const recent, sharedLines = 8, 64
	s := &stream{cpu: make([]uint8, n), pa: make([]mem.PhysAddr, n), write: make([]bool, n), gap: gap}
	lines := uint64(len(frames)) * mem.PageSize / lineSize
	line := func(l uint64) mem.PhysAddr {
		return mem.PhysAddr(frames[l*lineSize/mem.PageSize]<<mem.PageShift) + mem.PhysAddr(l*lineSize%mem.PageSize)
	}
	hist := make([][]mem.PhysAddr, cpus)
	for i := 0; i < n; i++ {
		c := rng.Intn(cpus)
		var pa mem.PhysAddr
		switch r := rng.Float64(); {
		case r < reuse && len(hist[c]) > 0:
			pa = hist[c][rng.Intn(len(hist[c]))]
		case r < reuse+shared:
			pa = line(uint64(rng.Intn(sharedLines)))
		default:
			pa = line(uint64(rng.Int63n(int64(lines))))
		}
		if len(hist[c]) < recent {
			hist[c] = append(hist[c], pa)
		} else {
			hist[c][i%recent] = pa
		}
		s.cpu[i], s.pa[i], s.write[i] = uint8(c), pa, rng.Float64() < storeShare
	}
	return s
}

// access replays st through a fresh memory model of the workload's own
// configuration and returns the model's L1 hit ratio with the timing.
func access(cfg compass.Config, frames int, newSt func([]uint64) *stream) (ops int, d time.Duration, l1 float64) {
	m := machine.New(cfg)
	phys := m.Sim.Phys()
	fr := make([]uint64, frames)
	for i := range fr {
		f, err := phys.AllocFrame()
		if err != nil {
			panic(fmt.Sprintf("access leg: %v", err))
		}
		fr[i] = f
	}
	st := newSt(fr)
	model := m.Sim.Model()
	clock := make([]event.Cycle, cfg.CPUs)
	start := time.Now()
	for i := range st.pa {
		c := st.cpu[i]
		clock[c] = model.Access(clock[c], int(c), st.pa[i], st.write[i]) + st.gap
	}
	d = time.Since(start)
	o := outcome{model: model.Name(), counters: m.Sim.Counters()}
	return len(st.pa), d, l1HitRatio(&o)
}
