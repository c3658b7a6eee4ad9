// Package circuit is a hop-level model of circuit-switched communication,
// one level below package simnet. Where simnet reserves a whole e-cube
// path atomically, this simulator walks the header through the network
// the way §2 describes the hardware: the probe advances one link at a
// time (δ per dimension), *holding every link acquired so far* while it
// waits for the next one. Partial-path holding is the real hazard of
// circuit switching: with inconsistent routing orders, circuits can
// hold-and-wait in a cycle and deadlock.
//
// The package exists to demonstrate two classical facts the paper relies
// on implicitly:
//
//   - dimension-ordered (e-cube) routing is deadlock-free: any batch of
//     messages completes (tests exercise random batches);
//   - mixed routing orders can deadlock: a four-message cycle on a
//     2-cube deadlocks under adversarial orders and completes under
//     e-cube (the tests construct it).
//
// For uncontended traffic the end-to-end latency reduces to the model's
// λ + τ·m + δ·h, so the hop-level and path-level simulators agree.
package circuit

import (
	"fmt"
	"sort"

	"repro/internal/bitutil"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/topology"
)

// RouteOrder returns the order (as a list of dimension indices) in which
// a message from src to dst corrects its differing bits.
type RouteOrder func(src, dst int) []int

// ECubeOrder corrects the lowest differing bit first — the machine's
// fixed routing (§2), which is deadlock-free.
func ECubeOrder(src, dst int) []int {
	var dims []int
	for diff := src ^ dst; diff != 0; {
		b := bitutil.LowestSetBit(diff)
		dims = append(dims, b)
		diff &^= 1 << uint(b)
	}
	return dims
}

// HighFirstOrder corrects the highest differing bit first. Any *fixed*
// dimension order is deadlock-free; this one exists to combine with
// ECubeOrder for the mixed-order deadlock demonstration.
func HighFirstOrder(src, dst int) []int {
	dims := ECubeOrder(src, dst)
	bitutil.ReverseInts(dims)
	return dims
}

// MixedOrder routes even-labelled sources lowest-bit-first and odd ones
// highest-bit-first — an adversarial (non-uniform) policy that admits
// hold-and-wait cycles.
func MixedOrder(src, dst int) []int {
	if src%2 == 0 {
		return ECubeOrder(src, dst)
	}
	return HighFirstOrder(src, dst)
}

// Message is one transfer injected into the network.
type Message struct {
	Src, Dst int
	Bytes    int
	Start    float64 // injection time, µs
}

// Completion records the fate of one message.
type Completion struct {
	Msg      Message
	Finish   float64 // µs; meaningful only when Done
	Done     bool
	PathHeld []topology.Edge // links held when the run ended (deadlock diagnosis)
}

// Result is the outcome of one Run.
type Result struct {
	Completions []Completion
	Makespan    float64
	// Deadlocked reports that some circuits could not complete because
	// of a hold-and-wait cycle (or starvation); their Completions have
	// Done == false and list the links they held.
	Deadlocked bool
}

// Network is the hop-level simulator.
type Network struct {
	topo  topology.Network
	prm   model.Params
	order RouteOrder
}

// New returns a hop-level network over any topology. order overrides the
// routing policy with an explicit bit-correction order — it is defined
// on label bits, so a non-nil order requires a hypercube (Run reports an
// error otherwise); nil means the topology's own dimension-ordered
// routing, which works on every shape.
func New(t topology.Network, prm model.Params, order RouteOrder) *Network {
	return &Network{topo: t, prm: prm, order: order}
}

// path returns the node sequence message m's header will walk.
func (n *Network) path(m Message) ([]int, error) {
	if n.order == nil {
		return n.topo.Route(m.Src, m.Dst)
	}
	if _, ok := n.topo.(*topology.Hypercube); !ok {
		return nil, fmt.Errorf("circuit: explicit routing orders are bit-based and need a hypercube, not %s",
			n.topo.Name())
	}
	p := []int{m.Src}
	cur := m.Src
	for _, dim := range n.order(m.Src, m.Dst) {
		cur = bitutil.FlipBit(cur, dim)
		p = append(p, cur)
	}
	if cur != m.Dst {
		return nil, fmt.Errorf("circuit: routing order for %d→%d ends at %d", m.Src, m.Dst, cur)
	}
	return p, nil
}

type link struct {
	owner   *circuitState
	waiters []*circuitState // FIFO
}

type circuitState struct {
	idx  int // index into messages
	msg  Message
	path []int // remaining nodes the header must visit
	at   int   // current node of the header
	held []topology.Edge
	done bool
}

// Run injects the messages and simulates until completion or quiescence.
// Quiescence with incomplete circuits is reported as deadlock rather than
// as an error: callers inspect Result.Deadlocked.
func (n *Network) Run(messages []Message) (Result, error) {
	paths := make([][]int, len(messages))
	for i, m := range messages {
		if !n.topo.Contains(m.Src) || !n.topo.Contains(m.Dst) {
			return Result{}, fmt.Errorf("circuit: message %d→%d outside %s",
				m.Src, m.Dst, n.topo.Name())
		}
		if m.Bytes < 0 || m.Start < 0 {
			return Result{}, fmt.Errorf("circuit: negative size or start time")
		}
		p, err := n.path(m)
		if err != nil {
			return Result{}, err
		}
		paths[i] = p[1:] // the header starts at src
	}
	eng := event.New()
	links := make(map[topology.Edge]*link)
	res := Result{Completions: make([]Completion, len(messages))}
	for i, m := range messages {
		res.Completions[i] = Completion{Msg: m}
	}

	getLink := func(e topology.Edge) *link {
		l, ok := links[e]
		if !ok {
			l = &link{}
			links[e] = l
		}
		return l
	}

	var advance func(cs *circuitState, now event.Time)

	// release frees every link the circuit holds and hands each to its
	// next waiter.
	release := func(cs *circuitState, now event.Time) {
		held := cs.held
		cs.held = nil
		for _, e := range held {
			l := getLink(e)
			l.owner = nil
			if len(l.waiters) > 0 {
				next := l.waiters[0]
				l.waiters = l.waiters[1:]
				l.owner = next
				next.held = append(next.held, e)
				// The granted circuit crosses the link now; the hop it
				// was retrying (kept at the front of path) is consumed.
				next.path = next.path[1:]
				nc := next
				eng.Post(now+event.Time(n.prm.Delta), func(t event.Time) {
					nc.at = e.To
					advance(nc, t)
				})
			}
		}
	}

	advance = func(cs *circuitState, now event.Time) {
		if cs.done {
			return
		}
		if cs.at == cs.msg.Dst {
			// Path complete: stream the payload, then tear down.
			dur := n.prm.Lambda + n.prm.Tau*float64(cs.msg.Bytes)
			eng.Post(now+event.Time(dur), func(t event.Time) {
				cs.done = true
				res.Completions[cs.idx].Done = true
				res.Completions[cs.idx].Finish = float64(t)
				if float64(t) > res.Makespan {
					res.Makespan = float64(t)
				}
				release(cs, t)
			})
			return
		}
		// Next link of the precomputed dimension-ordered path.
		e := topology.Edge{From: cs.at, To: cs.path[0]}
		l := getLink(e)
		if l.owner == nil {
			l.owner = cs
			cs.held = append(cs.held, e)
			cs.path = cs.path[1:]
			eng.Post(now+event.Time(n.prm.Delta), func(t event.Time) {
				cs.at = e.To
				advance(cs, t)
			})
			return
		}
		// Hold-and-wait: keep everything we have, queue on the link; the
		// pending hop stays at the front of path until granted.
		l.waiters = append(l.waiters, cs)
	}

	states := make([]*circuitState, len(messages))
	for i, m := range messages {
		cs := &circuitState{idx: i, msg: m, at: m.Src, path: paths[i]}
		states[i] = cs
		eng.Post(event.Time(m.Start), func(t event.Time) { advance(cs, t) })
	}
	if !eng.RunLimit(10_000_000) {
		return res, fmt.Errorf("circuit: event budget exhausted")
	}
	for _, cs := range states {
		if !cs.done {
			res.Deadlocked = true
			held := append([]topology.Edge(nil), cs.held...)
			sort.Slice(held, func(i, j int) bool {
				if held[i].From != held[j].From {
					return held[i].From < held[j].From
				}
				return held[i].To < held[j].To
			})
			res.Completions[cs.idx].PathHeld = held
		}
	}
	return res, nil
}

// Latency returns the uncontended end-to-end latency of one message under
// the hop model: δ·h header walk + λ + τ·m streaming.
func (n *Network) Latency(m Message) float64 {
	h := n.topo.Distance(m.Src, m.Dst)
	return n.prm.Delta*float64(h) + n.prm.Lambda + n.prm.Tau*float64(m.Bytes)
}
