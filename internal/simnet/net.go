package simnet

import (
	"fmt"
	"strings"

	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/topology"
)

// Network is a simulated circuit-switched machine over any
// topology.Network — hypercube, torus or mesh. Routing, link contention
// and distances come from the topology; the hypercube keeps its
// bit-trick fast paths in the replay core.
type Network struct {
	topo       topology.Network
	hyper      *topology.Hypercube // non-nil when topo is the radix-2 fast path
	params     model.Params
	trace      bool
	budget     uint64
	jitterFrac float64
	jitterSeed int64
	faults     *compiledFaults // timed fault schedule (SetFaultPlan), nil when none
	shards     int             // SetReplayShards; ≤ 1 replays serially
}

// SetJitter enables deterministic pseudo-random perturbation of every
// transmission duration by up to ±frac (e.g. 0.05 = ±5%). The paper's
// Figures 4–6 distinguish measured (solid) from predicted (dashed)
// curves; jitter turns the simulator into the "measured" machine whose
// imperfect agreement with the model can be quantified. frac = 0 restores
// exact model behaviour.
//
// The noise source is never the global math/rand state: every node owns a
// private splitmix64 stream seeded from (this Network's seed, node id), so
// repeated Runs of the same programs give bit-identical results
// (go test -count=2), concurrent Runs on different Networks do not perturb
// each other, and two Networks with the same seed agree exactly. Per-node
// streams — rather than one per-Run stream consumed in global event
// order — are what let the sharded replay mode (SetReplayShards) stay
// bit-identical to serial replay: a node draws the same noise values
// regardless of how unrelated nodes' events interleave around it.
func (n *Network) SetJitter(frac float64, seed int64) {
	if frac < 0 {
		frac = 0
	}
	n.jitterFrac = frac
	n.jitterSeed = seed
}

// DefaultEventBudget is the watchdog limit on simulation events per Run;
// real workloads stay far below it, so hitting it indicates a livelock in
// the simulated programs. Runs whose programs are structurally larger
// (e.g. compiled complete-exchange plans beyond d = 12) raise the limit
// automatically to a bound derived from the total op count, so the
// watchdog can only trip on a genuine scheduling bug.
const DefaultEventBudget = 50_000_000

// SetEventBudget overrides the per-Run event watchdog (0 restores the
// default with its structural auto-scaling). An explicit budget is taken
// literally; tests use tiny values to exercise the exhaustion path.
func (n *Network) SetEventBudget(limit uint64) { n.budget = limit }

// SetTrace enables or disables timeline recording: when on, every node
// op's occupancy interval is appended to Result.Timeline.
func (n *Network) SetTrace(on bool) { n.trace = on }

// Interval is one node-op occupancy span in the timeline: the node was
// inside the op from Start to End (µs). For communication ops the span
// includes rendezvous and circuit waiting.
type Interval struct {
	Node  int
	Kind  OpKind
	Peer  int
	Bytes int
	Start float64
	End   float64
}

// New returns a network over the given topology with the given machine
// parameters. A fault-free topology.Degraded overlay keeps the
// hypercube bit-trick fast paths (it routes identically to its base by
// construction); a faulty overlay routes — and detours — through the
// overlay, and its slow wires stretch the circuits that cross them.
func New(t topology.Network, p model.Params) *Network {
	h, _ := topology.AsHypercube(t)
	return &Network{topo: t, hyper: h, params: p}
}

// Topo returns the underlying topology.
func (n *Network) Topo() topology.Network { return n.topo }

// Nodes returns the node count of the underlying topology.
func (n *Network) Nodes() int { return n.topo.Nodes() }

// Params returns the machine parameters.
func (n *Network) Params() model.Params { return n.params }

// Result reports the outcome of one simulated run.
type Result struct {
	// Makespan is the virtual time at which the last node finished, µs.
	Makespan float64
	// NodeFinish holds each node's completion time, µs.
	NodeFinish []float64
	// ContentionStall is the total time circuits spent waiting for busy
	// links, summed over all transmissions, µs.
	ContentionStall float64
	// Messages is the number of point-to-point transmissions (an
	// exchange counts as two).
	Messages int
	// BytesMoved is the total payload volume transmitted.
	BytesMoved int
	// DroppedForced counts FORCED messages that arrived before their
	// receive was posted (§7.3 calls this outcome "fatal"; we record it
	// and deliver anyway so the simulation can finish and report).
	DroppedForced int
	// Barriers is the number of global synchronizations executed.
	Barriers int
	// MaxEdgeQueue is the largest number of circuits that were ever
	// simultaneously holding-or-waiting on one directed link.
	MaxEdgeQueue int
	// Timeline holds per-op occupancy intervals when tracing is enabled
	// (Network.SetTrace), in completion order.
	Timeline []Interval
	// ReplayShards is the number of event-engine shards the run actually
	// used: 1 for a serial replay (including every sharded attempt that
	// fell back — cross-span detour routes, unconfined fault plans), the
	// maximum per-phase shard count otherwise. Sharded and serial replays
	// of the same source are bit-identical in every other field.
	ReplayShards int
}

// Source is the program set of one run addressed by (node, index). It is
// the compiled form of per-node programs: a trace compiler (package
// exchange's CompiledPlan) can replay a million-node plan without
// materializing 2^d op slices, because the replay core only ever asks for
// one op at a time. A plain []Program is adapted by Network.Run.
type Source interface {
	// NumNodes returns the number of node programs (must equal the
	// network's node count).
	NumNodes() int
	// NumOps returns the length of node p's program.
	NumOps(p int) int
	// Op returns the i-th op of node p's program, 0 ≤ i < NumOps(p).
	Op(p, i int) Op
}

// programsSource adapts explicit per-node programs to Source.
type programsSource []Program

func (s programsSource) NumNodes() int    { return len(s) }
func (s programsSource) NumOps(p int) int { return len(s[p]) }
func (s programsSource) Op(p, i int) Op   { return s[p][i] }

// runState is the mutable execution state of one Run. All hot tables are
// flat slices indexed by node or directed-link id — the interpreter
// allocates nothing per event once set up (inbox slots and edge hold
// rings grow amortized on first use).
type runState struct {
	net   *Network
	eng   *event.Engine
	src   Source
	topo  topology.Network
	n     int  // nodes
	d     int  // hypercube dimension (fast path only)
	hyper bool // radix-2 bit-trick routing active
	deg   int  // directed-link slots per node (== d on the hypercube)
	syncD int  // topology diameter, the global-sync weight (§7.3)

	// Fault state: faulty gates the per-circuit fault resolution out of
	// healthy runs entirely; degr carries the static per-wire slow
	// factors of a degraded overlay (nil when none).
	faulty bool
	degr   *topology.Degraded

	routeBuf []int // generic-path route scratch, reused across hops

	pc      []int32   // program counter per node
	lens    []int32   // program length per node (NumOps, cached)
	opStart []float64 // time the current op began occupying the node
	ready   []float64 // node-available time, µs
	done    []bool

	// Exchange rendezvous: node p parked inside OpExchange has
	// exPeer[p] = partner, with its payload size and ready time. The
	// second side to arrive finds its partner here and computes the
	// circuit timing for both (replaces the pend/pairSeq maps).
	exPeer  []int32
	exBytes []int
	exReady []float64

	// edges is the directed-link array, indexed by topology.LinkSlot
	// (u*d+i on the hypercube: node u's link across dimension i).
	edges []edgeState

	// Message channels, one per ordered (src,dst) pair actually used,
	// discovered on first contact. outIdx[src] lists src's channels; the
	// per-slot cursors replace the inbox/arrSeq/postSeq/waitSeq maps.
	chans  []msgChan
	outIdx [][]chanRef

	bar barrierState

	res    Result
	failed error

	// rngs holds one splitmix64 jitter stream per node (nil when jitter
	// is off). Per-node streams keep noise draws independent of the
	// global event interleaving, which the sharded replay mode requires
	// for bit-identity with serial replay.
	rngs []uint64
	// stall accumulates ContentionStall per owning node; the run sums it
	// in node-index order at the end. Event-order accumulation into one
	// float64 would make the total depend on how unrelated nodes'
	// reservations interleave — per-node accumulation makes the sharded
	// and serial totals bit-identical.
	stall []float64

	// windowed marks a shard interpreting one phase's row window under
	// runSharded: barriers are handled by the orchestrator between
	// windows, so encountering one mid-window is a verification bug.
	windowed bool

	// routedDist takes hop counts from the fault-aware route (a degraded
	// overlay with faults), walked into routeBuf, instead of Distance.
	routedDist bool

	// Event kinds of the two handlers, registered once per engine.
	stepK    event.Kind
	deliverK event.Kind
}

// newRunState returns an interpreter for src whose directed-link state is
// edges, with its event kinds registered and every node idle at time 0.
func (n *Network) newRunState(src Source, edges []edgeState) *runState {
	nodes := n.topo.Nodes()
	st := &runState{
		net:   n,
		eng:   event.New(),
		src:   src,
		topo:  n.topo,
		n:     nodes,
		hyper: n.hyper != nil,
		deg:   n.topo.Degree(),
		syncD: n.topo.Diameter(),

		pc:      make([]int32, nodes),
		lens:    make([]int32, nodes),
		opStart: make([]float64, nodes),
		ready:   make([]float64, nodes),
		done:    make([]bool, nodes),
		exPeer:  make([]int32, nodes),
		exBytes: make([]int, nodes),
		exReady: make([]float64, nodes),
		edges:   edges,
		outIdx:  make([][]chanRef, nodes),
		stall:   make([]float64, nodes),
		res:     Result{NodeFinish: make([]float64, nodes)},
	}
	if n.hyper != nil {
		st.d = n.hyper.Dim()
	}
	if dg, ok := n.topo.(*topology.Degraded); ok {
		st.routedDist = !dg.Healthy()
		if dg.HasSlowLinks() {
			st.degr = dg
		}
	}
	st.faulty = st.degr != nil || n.faults != nil
	for p := range st.exPeer {
		st.exPeer[p] = -1
	}
	st.stepK = st.eng.Handle(func(_ event.Time, p int) { st.step(p) })
	st.deliverK = st.eng.Handle(func(now event.Time, ch int) { st.deliverAt(ch, float64(now)) })
	return st
}

// edgeState is one directed link. Holds on a link never overlap (each
// reservation starts at or after the previous finish), so the outstanding
// reservations at any instant form an ascending queue of finish times,
// pruned in place at each new hold instead of scheduling a release event
// per link per hold. The queue lives in a small inline ring — schedules
// without deep contention allocate nothing — and spills to a slice only
// when more than edgeRing circuits stack up on one link.
type edgeState struct {
	busyUntil float64
	maxQueue  int32
	head, n   int32 // inline ring cursor and length
	ring      [edgeRing]float64
	spill     []float64 // overflow mode once non-nil
	spillHead int32
}

const edgeRing = 4

// hold records a reservation finishing at finish, placed at time now, and
// returns the number of circuits then holding-or-waiting on the link.
func (e *edgeState) hold(now, finish float64) int32 {
	if e.spill != nil {
		h := e.spillHead
		for int(h) < len(e.spill) && e.spill[h] <= now {
			h++
		}
		if int(h) == len(e.spill) {
			e.spill, h = e.spill[:0], 0
		} else if int(h) >= len(e.spill)-int(h) {
			// Compact once the dead prefix outgrows the live suffix, so
			// a continuously backlogged link stays O(live holds).
			n := copy(e.spill, e.spill[h:])
			e.spill, h = e.spill[:n], 0
		}
		e.spillHead = h
		e.spill = append(e.spill, finish)
		return int32(len(e.spill)) - h
	}
	for e.n > 0 && e.ring[e.head] <= now {
		e.head = (e.head + 1) % edgeRing
		e.n--
	}
	if e.n == edgeRing {
		e.spill = make([]float64, 0, 2*edgeRing)
		for i := int32(0); i < edgeRing; i++ {
			e.spill = append(e.spill, e.ring[(e.head+i)%edgeRing])
		}
		e.spill = append(e.spill, finish)
		e.head, e.n = 0, 0
		return edgeRing + 1
	}
	e.ring[(e.head+e.n)%edgeRing] = finish
	e.n++
	return e.n
}

// msgChan carries the messages of one ordered (src,dst) pair. The three
// cursors are the FIFO sequence counters for arrival, posting and waiting;
// sent indexes the slot a send writes its message type into.
type msgChan struct {
	src, dst int32
	arr      int32
	post     int32
	wait     int32
	sent     int32
	slots    []inboxSlot
}

type inboxSlot struct {
	arriveAt  float64
	waiterCPU float64 // time at which the waiter parked
	flags     uint8
}

const (
	slotArrived uint8 = 1 << iota
	slotPosted
	slotWaiting
	slotForced
)

type chanRef struct {
	dst int32
	ch  int32
}

type barrierState struct {
	arrived int
	maxTime float64
	waiters []int32
}

// Run executes one program per node (len(programs) must equal the node
// count) and returns the result. Programs must be mutually consistent:
// every exchange must have a matching exchange on the peer, and every
// send must eventually be received or the run reports a deadlock error.
func (n *Network) Run(programs []Program) (Result, error) {
	if len(programs) != n.topo.Nodes() {
		return Result{}, fmt.Errorf("simnet: %d programs for %d nodes",
			len(programs), n.topo.Nodes())
	}
	return n.runSource(programsSource(programs))
}

// RunSource executes a compiled program source — the allocation-free
// costing path used by exchange.Plan.Cost and collectives.Cost.
func (n *Network) RunSource(src Source) (Result, error) {
	if src.NumNodes() != n.topo.Nodes() {
		return Result{}, fmt.Errorf("simnet: source of %d programs for %d nodes",
			src.NumNodes(), n.topo.Nodes())
	}
	return n.runSource(src)
}

func (n *Network) runSource(src Source) (Result, error) {
	if n.shards > 1 && !n.trace {
		if sh, ok := src.(Sharded); ok {
			if res, ran, err := n.runSharded(sh, n.shards); ran {
				return res, err
			}
		}
	}
	st, err := n.runSerial(src)
	return st.res, err
}

// runSerial replays src on a single event engine and returns the final
// interpreter state; st.res holds the result.
func (n *Network) runSerial(src Source) (*runState, error) {
	nodes := n.topo.Nodes()
	st := n.newRunState(src, make([]edgeState, nodes*n.topo.Degree()))
	st.res.ReplayShards = 1
	if n.jitterFrac != 0 {
		// Fresh per-Run streams seeded from the Network keep jitter
		// reproducible across repeated and concurrent Runs (see
		// SetJitter); never touch the global math/rand state here.
		st.rngs = seedJitterStreams(n.jitterSeed, nodes)
	}

	totalOps := uint64(0)
	for p := 0; p < nodes; p++ {
		st.lens[p] = int32(src.NumOps(p))
		totalOps += uint64(st.lens[p])
	}
	// Seed: every node begins interpreting its program at time 0.
	for p := 0; p < nodes; p++ {
		st.eng.PostArg(0, st.stepK, p)
	}
	budget := n.budget
	if budget == 0 {
		budget = DefaultEventBudget
		// Every op consumes exactly one step event; add one final step
		// per node, one delivery per send, and the seed events. 2·ops +
		// 4·nodes dominates that, so the watchdog never trips on a
		// well-formed program of any size.
		if structural := 2*totalOps + 4*uint64(nodes); structural > budget {
			budget = structural
		}
	}
	if !st.eng.RunLimit(budget) {
		return st, st.budgetError(budget)
	}
	if st.failed != nil {
		return st, st.failed
	}
	for p, d := range st.done {
		if !d {
			return st, fmt.Errorf("simnet: node %d blocked at op %d (%s): deadlock",
				p, st.pc[p], st.opName(p))
		}
	}
	for i := range st.edges {
		if q := int(st.edges[i].maxQueue); q > st.res.MaxEdgeQueue {
			st.res.MaxEdgeQueue = q
		}
	}
	// Per-node stall sums collapse to the reported total in node-index
	// order — the same order the sharded merge uses, so both modes add
	// the same floats in the same sequence.
	for p := 0; p < nodes; p++ {
		st.res.ContentionStall += st.stall[p]
	}
	return st, nil
}

// budgetError reports event-budget exhaustion with enough detail to act
// on: how many events ran, and where each unfinished node is stuck (its
// program counter and current op), mirroring the deadlock error path.
func (st *runState) budgetError(budget uint64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "simnet: event budget (%d) exhausted after %d events (livelock?)",
		budget, st.eng.Steps())
	const maxListed = 8
	listed, unfinished := 0, 0
	for p := 0; p < st.n; p++ {
		if st.done[p] {
			continue
		}
		unfinished++
		if listed < maxListed {
			if listed == 0 {
				b.WriteString("; unfinished:")
			} else {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " node %d at op %d/%d (%s)",
				p, st.pc[p], st.src.NumOps(p), st.opName(p))
			listed++
		}
	}
	if unfinished > listed {
		fmt.Fprintf(&b, " and %d more", unfinished-listed)
	}
	return fmt.Errorf("%s", b.String())
}

func (st *runState) opName(p int) string {
	if int(st.pc[p]) < st.src.NumOps(p) {
		op := st.src.Op(p, int(st.pc[p]))
		switch op.Kind {
		case OpExchange, OpSend, OpPostRecv, OpWaitRecv, OpRecv:
			return fmt.Sprintf("%s peer %d", op.Kind, op.Peer)
		}
		return op.Kind.String()
	}
	return "end"
}

func (st *runState) fail(err error) {
	if st.failed == nil {
		st.failed = err
	}
}

// checkPeer validates a receive op's peer, failing the run (not
// panicking) on a node outside the cube.
func (st *runState) checkPeer(p int, op Op) bool {
	if op.Peer < 0 || op.Peer >= st.n {
		st.fail(fmt.Errorf("simnet: node %d: %s from nonexistent node %d", p, op.Kind, op.Peer))
		return false
	}
	return true
}

// step interprets the current op of node p. Called whenever node p becomes
// runnable (at its ready time).
func (st *runState) step(p int) {
	if st.failed != nil || st.done[p] {
		return
	}
	if st.pc[p] >= st.lens[p] {
		st.done[p] = true
		st.res.NodeFinish[p] = st.ready[p]
		if st.ready[p] > st.res.Makespan {
			st.res.Makespan = st.ready[p]
		}
		return
	}
	op := st.src.Op(p, int(st.pc[p]))
	st.opStart[p] = st.ready[p]
	switch op.Kind {
	case OpCompute:
		if op.Micros < 0 {
			st.fail(fmt.Errorf("simnet: node %d: negative compute time", p))
			return
		}
		st.advance(p, st.ready[p]+op.Micros)
	case OpShuffle:
		st.advance(p, st.ready[p]+st.net.params.Rho*float64(op.Bytes))
	case OpBarrier:
		st.enterBarrier(p)
	case OpExchange:
		st.enterExchange(p, op)
	case OpSend:
		st.doSend(p, op)
	case OpPostRecv:
		if !st.checkPeer(p, op) {
			return
		}
		st.doPostRecv(p, op.Peer)
		st.advance(p, st.ready[p])
	case OpRecv:
		if !st.checkPeer(p, op) {
			return
		}
		st.doPostRecv(p, op.Peer)
		st.doWaitRecv(p, op.Peer)
	case OpWaitRecv:
		if !st.checkPeer(p, op) {
			return
		}
		st.doWaitRecv(p, op.Peer)
	default:
		st.fail(fmt.Errorf("simnet: node %d: unknown op kind %v", p, op.Kind))
	}
}

// advance completes node p's current op at time t and schedules the next.
func (st *runState) advance(p int, t float64) {
	if st.net.trace && st.pc[p] < st.lens[p] {
		op := st.src.Op(p, int(st.pc[p]))
		st.res.Timeline = append(st.res.Timeline, Interval{
			Node:  p,
			Kind:  op.Kind,
			Peer:  op.Peer,
			Bytes: op.Bytes,
			Start: st.opStart[p],
			End:   t,
		})
	}
	st.ready[p] = t
	st.pc[p]++
	st.eng.PostArg(event.Time(t), st.stepK, p)
}

// park leaves node p blocked inside its current op; a later event will
// resume it via advance.
func (st *runState) park() {}
