// Package event provides a deterministic discrete-event simulation engine:
// a virtual clock in microseconds and a priority queue of timestamped
// events. The circuit-switched network simulator (package simnet) and its
// clients are built on it.
//
// Handlers live outside the queue. A long-lived ArgHandler is registered
// once with Handle, which returns its Kind; PostArg then schedules
// (time, Kind, arg) and fires handler(now, arg). Post schedules a one-off
// closure instead: the engine parks it in an index-addressed slot table
// and queues the slot index, reusing the slot once the closure fires.
//
// The queue itself is a 4-ary min-heap of value events, each
// {time, seq, arg, kind} in 32 bytes with no pointer fields, so queue
// moves involve no interface dispatch and no GC write barriers. Sift-up
// and sift-down carry a hole down or up the tree and store the moving
// event once, instead of swapping at every level. Events are
// fire-and-forget: nothing is returned to cancel, and a warm engine
// schedules without allocating.
//
// Determinism: events fire in (time, seq) order, where seq is the
// scheduling order, so ties fire FIFO and repeated runs of the same
// program produce identical traces.
package event

import "fmt"

// Time is virtual simulation time in microseconds.
type Time float64

// Handler is a one-off callback fired when an event matures.
type Handler func(now Time)

// ArgHandler is a callback fired with the integer argument it was
// scheduled with. Registered once with Handle, it serves any number of
// PostArg calls without a per-event closure.
type ArgHandler func(now Time, arg int)

// Kind names a handler registered with Engine.Handle. The zero Kind is
// never returned by Handle, so an unset Kind is rejected by PostArg.
type Kind uint32

// slotKind marks a queued Post: arg indexes the engine's slot table.
const slotKind Kind = 0

// event is one queued firing. It holds no pointers: the handler is found
// through kind (and, for Post, the slot table at arg).
type event struct {
	time Time
	seq  uint64
	arg  int
	kind Kind
}

// before reports whether a fires before b: earlier time, then earlier
// scheduling order. seq is unique, so the order is total.
func (a *event) before(b *event) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// Engine is a discrete-event scheduler.
type Engine struct {
	now    Time
	seq    uint64
	nsteps uint64
	queue  []event      // 4-ary min-heap by (time, seq)
	kinds  []ArgHandler // Kind k dispatches to kinds[k-1]
	slots  []Handler    // closures parked by Post, indexed by event.arg
	free   []int32      // vacant slot indices, reused LIFO
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (g *Engine) Now() Time { return g.now }

// Steps returns the number of events executed so far.
func (g *Engine) Steps() uint64 { return g.nsteps }

// Pending returns the number of queued events.
func (g *Engine) Pending() int { return len(g.queue) }

// Handle registers h and returns the Kind that PostArg schedules it by.
// A nil handler panics.
func (g *Engine) Handle(h ArgHandler) Kind {
	if h == nil {
		panic("event: nil handler")
	}
	g.kinds = append(g.kinds, h)
	return Kind(len(g.kinds))
}

// Post schedules h to fire at absolute time t. Scheduling in the past
// (t < Now) or with a nil handler panics: either indicates a logic error
// in the caller.
func (g *Engine) Post(t Time, h Handler) {
	if h == nil {
		panic("event: nil handler")
	}
	g.checkTime(t)
	var s int32
	if n := len(g.free); n > 0 {
		s = g.free[n-1]
		g.free = g.free[:n-1]
		g.slots[s] = h
	} else {
		s = int32(len(g.slots))
		g.slots = append(g.slots, h)
	}
	g.push(event{time: t, arg: int(s), kind: slotKind})
}

// PostArg schedules the handler registered as k to fire with arg at
// absolute time t (see Post). A Kind this engine's Handle did not return
// panics.
func (g *Engine) PostArg(t Time, k Kind, arg int) {
	if k == slotKind || int(k) > len(g.kinds) {
		panic(fmt.Sprintf("event: unknown kind %d", k))
	}
	g.checkTime(t)
	g.push(event{time: t, arg: arg, kind: k})
}

func (g *Engine) checkTime(t Time) {
	if t < g.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, g.now))
	}
}

// Step executes the single earliest event. It reports false when the
// queue is empty.
func (g *Engine) Step() bool {
	if len(g.queue) == 0 {
		return false
	}
	e := g.pop()
	g.now = e.time
	g.nsteps++
	if e.kind == slotKind {
		h := g.slots[e.arg]
		g.slots[e.arg] = nil
		g.free = append(g.free, int32(e.arg))
		h(g.now)
	} else {
		g.kinds[e.kind-1](g.now, e.arg)
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

// push stamps e with the next sequence number and sifts it up from a new
// leaf: parents later than e move down into the hole until e fits.
func (g *Engine) push(e event) {
	e.seq = g.seq
	g.seq++
	g.queue = append(g.queue, e)
	q := g.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// pop removes and returns the root. The root's hole is carried down to
// a leaf along the earliest child of each level, then the last leaf is
// sifted up from there: it is usually among the latest events, so it
// settles near the bottom and the descent skips comparing against it.
func (g *Engine) pop() event {
	q := g.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	g.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		q[i] = q[m]
		i = m
	}
	for i > 0 {
		p := (i - 1) >> 2
		if !last.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = last
	return top
}
