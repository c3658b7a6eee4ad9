// Package event provides a deterministic discrete-event simulation engine:
// a virtual clock in microseconds and a priority queue of timestamped
// callbacks. The circuit-switched network simulator (package simnet) and
// its clients are built on it.
//
// Events are fire-and-forget: Post and PostArg schedule a callback and
// return nothing, and the engine recycles each event after it fires, so
// a warm engine schedules without allocating.
//
// Determinism: events at equal times fire in scheduling order (FIFO among
// ties), so repeated runs of the same program produce identical traces.
package event

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is virtual simulation time in microseconds.
type Time float64

// Handler is a callback fired when an event matures.
type Handler func(now Time)

// ArgHandler is a callback fired with the integer argument it was
// scheduled with. Passing one long-lived ArgHandler to many PostArg calls
// avoids the per-event closure allocation a plain Handler would need to
// capture its argument.
type ArgHandler func(now Time, arg int)

// event is one scheduled callback; exactly one of handler and argh is set.
type event struct {
	time    Time
	seq     uint64
	handler Handler
	argh    ArgHandler
	arg     int
}

// Engine is a discrete-event scheduler.
type Engine struct {
	now    Time
	seq    uint64
	queue  eventHeap
	nsteps uint64
	free   []*event // fired events, reused by Post/PostArg
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (g *Engine) Now() Time { return g.now }

// Steps returns the number of events executed so far.
func (g *Engine) Steps() uint64 { return g.nsteps }

// Pending returns the number of queued events.
func (g *Engine) Pending() int { return len(g.queue) }

// Post schedules h to fire at absolute time t. Scheduling in the past
// (t < Now) or with a nil handler panics: either indicates a logic error
// in the caller.
func (g *Engine) Post(t Time, h Handler) {
	if h == nil {
		panic("event: nil handler")
	}
	e := g.newEvent(t)
	e.handler = h
	heap.Push(&g.queue, e)
}

// PostArg schedules h(now, arg) to fire at absolute time t (see Post).
// The handler is stored as passed, so reusing one bound ArgHandler across
// calls makes scheduling allocation-free.
func (g *Engine) PostArg(t Time, h ArgHandler, arg int) {
	if h == nil {
		panic("event: nil handler")
	}
	e := g.newEvent(t)
	e.argh = h
	e.arg = arg
	heap.Push(&g.queue, e)
}

// newEvent returns a recycled (or new) event stamped for time t.
func (g *Engine) newEvent(t Time) *event {
	if t < g.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, g.now))
	}
	var e *event
	if n := len(g.free); n > 0 {
		e = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	} else {
		e = &event{}
	}
	*e = event{time: t, seq: g.seq}
	g.seq++
	return e
}

// Step executes the single earliest event. It reports false when the
// queue is empty.
func (g *Engine) Step() bool {
	if len(g.queue) == 0 {
		return false
	}
	e := heap.Pop(&g.queue).(*event)
	if e.time < g.now {
		panic("event: time ran backwards")
	}
	g.now = e.time
	g.nsteps++
	h, argh, arg := e.handler, e.argh, e.arg
	*e = event{}
	g.free = append(g.free, e)
	if argh != nil {
		argh(g.now, arg)
	} else {
		h(g.now)
	}
	return true
}

// Run executes events until the queue is empty and returns the final time.
func (g *Engine) Run() Time {
	for g.Step() {
	}
	return g.now
}

// RunLimit executes at most n events; useful as a watchdog against
// runaway simulations. It reports whether the queue drained.
func (g *Engine) RunLimit(n uint64) bool {
	for i := uint64(0); i < n; i++ {
		if !g.Step() {
			return true
		}
	}
	return len(g.queue) == 0
}

// Inf is an effectively infinite simulation time.
const Inf = Time(math.MaxFloat64)

// eventHeap orders events by (time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
