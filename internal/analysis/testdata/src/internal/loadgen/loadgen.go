// Package loadgen is the evtclosure fixture for the open-loop traffic
// generator: arrival ticks fire once per session launch, so the hot
// no-capture rule applies. The legal form is the prebound tick method
// stored in a struct field; any capturing literal at a scheduling call
// site allocates a funcval per arrival and is flagged.
package loadgen

import "internal/core"

var totalArrivals uint64

// class is a miniature per-class aggregate, mirroring the real
// generator's prebound tickFn field.
type class struct {
	sim     *core.Sim
	offered uint64
	tickFn  func()
	conns   []int
}

func (c *class) tick() { c.offered++ }

// goodPrebound schedules the stored method value: the funcval is built
// once at construction, never per arrival.
func (c *class) goodPrebound() {
	c.sim.ScheduleTask(1, "loadgen-arrival", false, c.tickFn)
}

// goodStatic captures only package-level state, which does not force a
// heap funcval.
func (c *class) goodStatic() {
	c.sim.ScheduleTask(1, "loadgen-count", false, func() { totalArrivals++ })
}

func (c *class) badCapture() {
	c.sim.ScheduleTask(1, "loadgen-arrival", false, func() { c.offered++ }) // want `captures "c" in hot package loadgen`
}

func (c *class) badLoopVar() {
	for _, conn := range c.conns {
		c.sim.ScheduleTask(1, "loadgen-open", false, func() { totalArrivals += uint64(conn) }) // want `closure passed to Sim\.ScheduleTask captures per-iteration variable "conn"`
	}
}

// goodQueuePrebound schedules the stored method value from the queue
// clock, like the real generator's arrival stream.
func (c *class) goodQueuePrebound() {
	c.sim.ScheduleQueueTask(1, "loadgen-arrival", c.tickFn)
}

func (c *class) badQueueCapture(n uint64) {
	c.sim.ScheduleQueueTask(5000, "loadgen-launch", func() { c.offered += n }) // want `closure passed to Sim\.ScheduleQueueTask captures "c" in hot package loadgen`
}
