// Package optimize selects the best multiphase partition for a given cube
// dimension and block size (paper §6): it enumerates all p(d) partitions
// of d — a "trivial number" even for large cubes (p(10)=42, p(20)=627) —
// evaluates each against the machine model, and caches the winning plan
// for repeated use.
//
// Two evaluation backends are available: the closed-form analytic model
// (fast, used by default, mirrors §4.3/§7.4) and network simulation
// (accounts for any contention the analytic model cannot see). The
// simulated backend costs candidates on the trace-compiled path: each
// plan is lowered directly to per-node simnet programs and replayed
// through the discrete-event engine — no goroutines, no payload bytes —
// which raises the practical dimension limit to d ≤ MaxSimulatedDim. The
// compiled programs are op-for-op those a goroutine run on the simulated
// fabric records (exchange.TestCostEqualsSimulate), so a compiled cost is
// the data-verified cost.
//
// Enumeration never costs the same sub-schedule twice and never costs a
// candidate it can prove is a loser:
//
//   - Memoization. Candidates share almost all of their structure — the
//     same (dimension field, m) phase appears in many groupings — so the
//     optimizer keeps per-Optimizer compute-once caches of per-(field, m)
//     phase costs (analytic) and per-(field, m) compiled trace-fragment
//     makespans (simulated). A candidate's screening cost is the sum of
//     its phases' memoized values; BestOn and BuildTableOn sweeps reuse
//     phase work across candidates and across the m-sweep. Barriers
//     serialize phases, so in real arithmetic the fragment-sum equals the
//     whole-plan makespan exactly; in contended cyclic phases float
//     tie-breaking of link acquisitions can shift it by a small fraction
//     (≈2% worst observed), so selection runs on the fragment-sum and the
//     winner's reported TimeMicro is re-derived by one whole-plan replay
//     — bit-identical to Plan.Cost on the chosen partition.
//   - Branch-and-bound pruning (simulated backend). The analytic model
//     generalization (model.PhaseLowerBoundOn) is an admissible lower
//     bound on each phase's simulated makespan; candidates are ordered
//     best-first by bound and any candidate whose bound exceeds the
//     incumbent's simulated time is skipped without a replay. The bound
//     never overestimates, so no potential winner (or tie) is discarded,
//     and pruned/evaluated counters are exposed through Stats.
//   - Parallel costing. Surviving candidates are costed concurrently on
//     a bounded worker pool (SetWorkers, default GOMAXPROCS on the
//     compiled simulated path). Ties break deterministically — lowest
//     cost, then fewest phases, then enumeration order — reduced after
//     all workers finish, so parallel and serial enumeration return
//     bit-identical Choices. SetExhaustive(true) disables pruning and
//     best-first ordering for equivalence testing.
//
// Concurrent BestOn calls on the same uncached key share one evaluation:
// in-flight de-duplication prevents a cache stampede from running the
// full enumeration once per caller, and concurrent identical table
// sweeps share one build.
package optimize

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Backend selects how candidate partitions are costed.
type Backend int

const (
	// Analytic costs candidates with the closed-form model (eq. 3).
	Analytic Backend = iota
	// Simulated costs candidates by running the network simulator.
	Simulated
)

func (b Backend) String() string {
	switch b {
	case Analytic:
		return "analytic"
	case Simulated:
		return "simulated"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// MaxSimulatedDim is the dimension limit of the Simulated backend.
// Sharded replay (simnet.Network.SetReplayShards) keeps the largest
// fragments tractable: link-disjoint sub-block shards split a 2^18-node
// phase across cores with bit-identical results.
const MaxSimulatedDim = 18

// pruneSlack is the relative tolerance of the branch-and-bound cut: a
// candidate is discarded only when its lower bound exceeds the incumbent
// by more than this fraction. The bound is mathematically admissible; the
// slack only absorbs float64 summation noise, so a candidate that could
// still tie the winner is never pruned.
const pruneSlack = 1e-9

// Choice is the optimizer's answer for one (topology, m) query.
type Choice struct {
	// Topo is the topology's registry name ("hypercube-7", "torus-4x4x4").
	Topo string
	// D is the number of topology dimensions (the cube dimension on a
	// hypercube).
	D         int
	Block     int
	Part      partition.Partition
	TimeMicro float64
	Backend   Backend
}

// key identifies one cached choice.
type key struct {
	topo string
	m    int
}

// Stats is a snapshot of the optimizer's evaluation counters. Evaluations
// counts full enumerations (cache hits and singleflight followers do not
// move it); Evaluated and Pruned partition the candidates those
// enumerations dequeued into costed and bound-skipped; MemoHits and
// MemoMisses count phase-level memo lookups (a miss computes the phase —
// analytically or by fragment replay — a hit reuses it). The split of
// candidates between Evaluated and Pruned can vary run to run on the
// parallel path (it depends on how fast the incumbent drops); the
// returned Choice never does.
type Stats struct {
	Evaluations int64 `json:"evaluations"`
	Evaluated   int64 `json:"evaluated"`
	Pruned      int64 `json:"pruned"`
	MemoHits    int64 `json:"memo_hits"`
	MemoMisses  int64 `json:"memo_misses"`
	// ReplaysSharded and ReplaysSerial split the simulated backend's
	// event-engine replays (memoized fragments and whole-plan winner
	// re-derivations) by the mode that actually ran: sharded when the
	// link-disjoint partitioner engaged (Result.ReplayShards > 1),
	// serial otherwise — including every sharded attempt that fell back.
	ReplaysSharded int64 `json:"replays_sharded"`
	ReplaysSerial  int64 `json:"replays_serial"`
}

// Add accumulates another snapshot into s (serving tiers aggregate stats
// across per-machine optimizers).
func (s *Stats) Add(t Stats) {
	s.Evaluations += t.Evaluations
	s.Evaluated += t.Evaluated
	s.Pruned += t.Pruned
	s.MemoHits += t.MemoHits
	s.MemoMisses += t.MemoMisses
	s.ReplaysSharded += t.ReplaysSharded
	s.ReplaysSerial += t.ReplaysSerial
}

// Optimizer enumerates dimension groupings for one machine parameter set
// and caches results per (topology, m). It is safe for concurrent use;
// concurrent queries for the same uncached key share a single evaluation.
type Optimizer struct {
	params  model.Params
	backend Backend
	evals   atomic.Int64 // evaluateAll invocations, for stampede tests

	workers      atomic.Int32 // SetWorkers; ≤ 0 selects the default
	replayShards atomic.Int32 // SetReplayShards; ≤ 1 keeps replays serial
	exhaustive   atomic.Bool  // SetExhaustive; disables pruning/reordering

	evaluated      atomic.Int64
	pruned         atomic.Int64
	memoHits       atomic.Int64
	memoMisses     atomic.Int64
	replaysSharded atomic.Int64
	replaysSerial  atomic.Int64

	enums sync.Map // topology name -> *enumSet

	analyticPhases memoTable // (field, m) -> analytic phase cost
	simPhases      memoTable // (field, m) -> fragment replay makespan
	boundPhases    memoTable // (field, m) -> admissible lower bound

	mu     sync.Mutex
	cache  map[key]Choice
	flight map[key]*inflight

	tableMu     sync.Mutex
	tableFlight map[tableKey]*tableFlight
}

// inflight is one evaluation in progress; latecomers for the same key
// wait on done instead of re-running the enumeration.
type inflight struct {
	done chan struct{}
	c    Choice
	err  error
}

// tableKey identifies one table sweep; tableFlight deduplicates
// concurrent identical sweeps into a single build instead of one
// singleflight rendezvous per swept point per caller.
type tableKey struct {
	topo         string
	lo, hi, step int
}

type tableFlight struct {
	done chan struct{}
	t    Table
	err  error
}

// phaseKey identifies one memoized phase: the topology, the dimension
// field [lo, lo+w) and the block size. Every grouping containing this
// field at this m shares the entry.
type phaseKey struct {
	topo  string
	lo, w int
	m     int
}

// memoEntry is one compute-once memo cell.
type memoEntry struct {
	once sync.Once
	val  float64
	err  error
}

// memoTable is a concurrency-safe compute-once map: the first caller for
// a key runs compute, concurrent callers block on its sync.Once, later
// callers reuse the stored value. Entries live for the optimizer's
// lifetime, like the per-(topology, m) Choice cache above them.
type memoTable struct {
	mu sync.Mutex
	m  map[phaseKey]*memoEntry
}

func (t *memoTable) get(k phaseKey, hits, misses *atomic.Int64, compute func() (float64, error)) (float64, error) {
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[phaseKey]*memoEntry)
	}
	e, ok := t.m[k]
	if !ok {
		e = new(memoEntry)
		t.m[k] = e
	}
	t.mu.Unlock()
	first := false
	e.once.Do(func() {
		first = true
		e.val, e.err = compute()
	})
	if first {
		misses.Add(1)
	} else {
		hits.Add(1)
	}
	return e.val, e.err
}

// enumSet is the cached candidate enumeration of one topology: the
// groupings and, per grouping, its phase fields. Computed once per
// topology name and shared by every (m) query and sweep point.
type enumSet struct {
	once   sync.Once
	parts  []partition.Partition
	fields [][][2]int
	err    error
}

// New returns an optimizer over the given machine parameters using the
// analytic backend.
func New(p model.Params) *Optimizer {
	return &Optimizer{params: p, backend: Analytic, cache: make(map[key]Choice)}
}

// NewSimulated returns an optimizer that costs candidates by simulation
// on the trace-compiled path. Dimensions up to
// MaxSimulatedDim are accepted; enumeration runs on a worker pool bounded
// by GOMAXPROCS.
func NewSimulated(p model.Params) *Optimizer {
	return &Optimizer{params: p, backend: Simulated, cache: make(map[key]Choice)}
}

// SetWorkers bounds the candidate-costing worker pool. n ≤ 0 restores
// the default: GOMAXPROCS on the simulated backend, 1 for the
// analytic backend (the closed form is too cheap to fan out unless asked
// to). Requests above GOMAXPROCS are clamped. Safe to call concurrently
// with BestOn; an in-flight evaluation keeps the pool it started with. The
// pool size never changes which Choice is returned.
func (o *Optimizer) SetWorkers(n int) {
	if max := runtime.GOMAXPROCS(0); n > max {
		n = max
	}
	o.workers.Store(int32(n))
}

// SetReplayShards sets the event-engine shard count the simulated
// backend's replays request (simnet.Network.SetReplayShards): phases
// whose sub-blocks are provably link-disjoint run on up to n private
// engines and merge at each barrier; everything else falls back to
// serial dynamics. Sharded replays are bit-identical to serial ones, so
// the setting never changes which Choice is returned or its TimeMicro —
// only how fast the largest fragments cost. n ≤ 1 keeps replays serial
// (the default). Safe to call concurrently with BestOn; an in-flight
// evaluation keeps the count it started with.
func (o *Optimizer) SetReplayShards(n int) {
	if n < 0 {
		n = 0
	}
	o.replayShards.Store(int32(n))
}

// countReplay feeds the replay-mode stats split from one replay result.
func (o *Optimizer) countReplay(res simnet.Result) {
	if res.ReplayShards > 1 {
		o.replaysSharded.Add(1)
	} else {
		o.replaysSerial.Add(1)
	}
}

// SetExhaustive toggles the branch-and-bound cut and the best-first
// candidate ordering off (true) or back on (false). With pruning off,
// every candidate is costed in enumeration order — the oracle mode the
// equivalence tests compare against; the admissible bound guarantees the
// returned Choice is identical either way.
func (o *Optimizer) SetExhaustive(on bool) { o.exhaustive.Store(on) }

// Evaluations returns the number of full partition enumerations the
// optimizer has run so far. Cache hits and singleflight followers do not
// increment it, which makes it the observable a caching layer (the plan
// cache, the serving daemon) uses to prove its hits bypass the optimizer.
func (o *Optimizer) Evaluations() int64 { return o.evals.Load() }

// Stats returns a snapshot of the evaluation counters.
func (o *Optimizer) Stats() Stats {
	return Stats{
		Evaluations: o.evals.Load(),
		Evaluated:   o.evaluated.Load(),
		Pruned:      o.pruned.Load(),
		MemoHits:    o.memoHits.Load(),
		MemoMisses:  o.memoMisses.Load(),

		ReplaysSharded: o.replaysSharded.Load(),
		ReplaysSerial:  o.replaysSerial.Load(),
	}
}

// Params returns the machine parameters the optimizer evaluates against.
func (o *Optimizer) Params() model.Params { return o.params }

// MaxMixedRadixDims bounds the dimension count of topologies with
// unequal radices: those enumerate all 2^(k−1) ordered compositions, so
// the candidate count — unlike the uniform case's p(k), 627 at k=20 —
// grows exponentially in k. 17 dimensions cap the enumeration at 2^16
// candidates. Serving tiers enforce a tighter bound at request
// validation (plancache.ResolveTopology); this one is the library-level
// backstop.
const MaxMixedRadixDims = 17

// BestOn returns the fastest dimension grouping for a complete exchange
// of block size m on any topology. Results are cached per (topology, m);
// the enumeration is over the p(k) groupings of the k dimensions when
// all radices are equal (order cannot matter) and over all 2^(k−1)
// ordered compositions otherwise.
func (o *Optimizer) BestOn(net topology.Network, m int) (Choice, error) {
	return o.bestOn(context.Background(), net, m, nil)
}

// bestOn is BestOn with an optional warm-start hint: a grouping expected
// to be (near-)optimal — the previous sweep point's winner — evaluated
// first so the incumbent starts tight and the bound cuts early. The hint
// changes evaluation order only, never the returned Choice. ctx is used
// solely for observability (replay spans land on the calling request's
// trace); it does not cancel the enumeration.
func (o *Optimizer) bestOn(ctx context.Context, net topology.Network, m int, hint partition.Partition) (Choice, error) {
	if net.Nodes() > 1<<20 {
		return Choice{}, fmt.Errorf("optimize: %s exceeds the enumeration limit of 2^20 nodes", net.Name())
	}
	if !uniformRadices(net) && net.NumDims() > MaxMixedRadixDims {
		return Choice{}, fmt.Errorf("optimize: %s has %d unequal-radix dimensions; composition enumeration is limited to %d",
			net.Name(), net.NumDims(), MaxMixedRadixDims)
	}
	if m < 0 {
		return Choice{}, fmt.Errorf("optimize: negative block size %d", m)
	}
	// A non-operational degraded fabric (dead node, severed partition)
	// cannot host any complete exchange: fail the optimization up front
	// with the typed unroutable error instead of letting fault-aware
	// routing panic inside costing.
	if err := topology.CheckOperational(net); err != nil {
		return Choice{}, fmt.Errorf("optimize: %w", err)
	}
	if o.backend == Simulated && net.Nodes() > 1<<MaxSimulatedDim {
		return Choice{}, fmt.Errorf("optimize: simulated backend limited to %d nodes, got %s",
			1<<MaxSimulatedDim, net.Name())
	}
	k := key{topo: net.Name(), m: m}
	o.mu.Lock()
	if c, ok := o.cache[k]; ok {
		o.mu.Unlock()
		return c, nil
	}
	if f, ok := o.flight[k]; ok {
		// Another goroutine is already enumerating this key: share its
		// result instead of stampeding.
		o.mu.Unlock()
		<-f.done
		return f.c, f.err
	}
	f := &inflight{done: make(chan struct{})}
	if o.flight == nil {
		o.flight = make(map[key]*inflight)
	}
	o.flight[k] = f
	o.mu.Unlock()

	f.c, f.err = o.evaluateAll(ctx, net, m, hint)
	o.mu.Lock()
	if f.err == nil {
		o.cache[k] = f.c
	}
	delete(o.flight, k)
	o.mu.Unlock()
	close(f.done)
	return f.c, f.err
}

// uniformRadices reports whether every dimension has the same radix, in
// which case a group's radix multiset depends only on its size and
// phase order cannot change the cost.
func uniformRadices(net topology.Network) bool {
	dims := net.Dims()
	for _, r := range dims {
		if r != dims[0] {
			return false
		}
	}
	return true
}

// groupings enumerates the candidate dimension groupings of a topology:
// the partitions of k when every radix is equal (the hypercube's p(d)
// partitions, §6) and all ordered compositions of k otherwise.
func groupings(net topology.Network) []partition.Partition {
	k := net.NumDims()
	if uniformRadices(net) {
		return partition.All(k)
	}
	var out []partition.Partition
	cur := make([]int, 0, k)
	var rec func(remaining int)
	rec = func(remaining int) {
		if remaining == 0 {
			out = append(out, append(partition.Partition(nil), cur...))
			return
		}
		for part := remaining; part >= 1; part-- {
			cur = append(cur, part)
			rec(remaining - part)
			cur = cur[:len(cur)-1]
		}
	}
	rec(k)
	return out
}

// enumFor returns the topology's cached enumeration (groupings plus
// per-grouping phase fields), computing it on first use.
func (o *Optimizer) enumFor(topo topology.Network) (*enumSet, error) {
	v, _ := o.enums.LoadOrStore(topo.Name(), new(enumSet))
	es := v.(*enumSet)
	es.once.Do(func() {
		es.parts = groupings(topo)
		es.fields = make([][][2]int, len(es.parts))
		for i, D := range es.parts {
			es.fields[i], es.err = topology.PhaseFields(topo, D)
			if es.err != nil {
				return
			}
		}
	})
	return es, es.err
}

// evaluateAll costs the topology's groupings and returns the winner (ties
// go to the candidate with fewer phases, then to enumeration order, as
// always).
func (o *Optimizer) evaluateAll(ctx context.Context, topo topology.Network, m int, hint partition.Partition) (Choice, error) {
	o.evals.Add(1)
	if topo.NumDims() == 0 {
		return Choice{Topo: topo.Name(), D: 0, Block: m, Part: nil, TimeMicro: 0, Backend: o.backend}, nil
	}
	es, err := o.enumFor(topo)
	if err != nil {
		return Choice{}, err
	}
	return o.evaluateMemoized(ctx, topo, m, es, hint)
}

// evaluateMemoized is the memoized, branch-and-bound-pruned, parallel
// enumeration engine shared by both backends.
//
// Selection uses each candidate's phase-sum: the left-to-right sum of its
// memoized per-phase values. On the analytic backend those values are
// exactly PhaseCost/PhaseCostOn, so the sum is bit-identical to
// Multiphase/MultiphaseOn. On the simulated path each value is one
// compiled fragment replay (barrier + steps + shuffle); the phase-sum
// equals the whole-plan makespan up to float64 summation order, and the
// reported TimeMicro is re-derived from one whole-plan replay of the
// winner so it matches Plan.Cost bit-for-bit.
//
// Pruning discards a dequeued candidate only when its admissible lower
// bound exceeds the incumbent phase-sum by more than pruneSlack; since
// the incumbent only decreases toward the true minimum, a pruned
// candidate's cost is strictly above the winner's — it can neither win
// nor tie — so the reduction over the surviving candidates returns the
// same Choice as exhaustive enumeration, regardless of worker count or
// scheduling.
func (o *Optimizer) evaluateMemoized(ctx context.Context, topo topology.Network, m int, es *enumSet, hint partition.Partition) (Choice, error) {
	parts, fields := es.parts, es.fields
	simulated := o.backend == Simulated
	prune := simulated && !o.exhaustive.Load()

	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	var lbs []float64
	if prune {
		lbs = make([]float64, len(parts))
		for i := range parts {
			lb, err := o.candidateBound(topo, m, fields[i])
			if err != nil {
				return Choice{}, err
			}
			lbs[i] = lb
		}
		// Best-first: ascending bound, then fewer phases, then
		// enumeration order — the cheapest-looking candidate seeds the
		// incumbent so the cut engages as early as possible.
		sort.SliceStable(order, func(a, b int) bool {
			ia, ib := order[a], order[b]
			if lbs[ia] != lbs[ib] {
				return lbs[ia] < lbs[ib]
			}
			if len(parts[ia]) != len(parts[ib]) {
				return len(parts[ia]) < len(parts[ib])
			}
			return ia < ib
		})
		if hint != nil {
			for pos, i := range order {
				if parts[i].Equal(hint) {
					copy(order[1:pos+1], order[:pos])
					order[0] = i
					break
				}
			}
		}
	}

	costs := make([]float64, len(parts))
	done := make([]bool, len(parts))
	errs := make([]error, len(parts))

	workers := int(o.workers.Load())
	if workers <= 0 {
		if simulated {
			workers = runtime.GOMAXPROCS(0)
		} else {
			workers = 1
		}
	}
	if workers > len(order) {
		workers = len(order)
	}
	if workers < 1 {
		workers = 1
	}

	var net *simnet.Network
	if simulated {
		net = simnet.New(topo, o.params)
		net.SetReplayShards(int(o.replayShards.Load()))
	}

	var incMu sync.Mutex
	incumbent := math.Inf(1)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				pos := int(cursor.Add(1)) - 1
				if pos >= len(order) {
					return
				}
				i := order[pos]
				if prune {
					incMu.Lock()
					th := incumbent
					incMu.Unlock()
					if lbs[i] > th*(1+pruneSlack) {
						o.pruned.Add(1)
						continue
					}
				}
				c, err := o.candidateCost(net, topo, m, parts[i], fields[i])
				if err != nil {
					errs[i] = err
					continue
				}
				costs[i] = c
				done[i] = true
				o.evaluated.Add(1)
				if prune {
					incMu.Lock()
					if c < incumbent {
						incumbent = c
					}
					incMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			return Choice{}, errs[i]
		}
	}
	best := Choice{Topo: topo.Name(), D: topo.NumDims(), Block: m, Backend: o.backend}
	first := true
	for i := range parts {
		if !done[i] {
			continue
		}
		t := costs[i]
		if first || t < best.TimeMicro || (t == best.TimeMicro && len(parts[i]) < len(best.Part)) {
			best.Part = parts[i]
			best.TimeMicro = t
			first = false
		}
	}
	if first {
		return Choice{}, fmt.Errorf("optimize: internal: every candidate was pruned")
	}
	best.Part = best.Part.Clone()
	if simulated {
		t, err := o.finalizeSimulated(ctx, net, topo, m, best.Part)
		if err != nil {
			return Choice{}, err
		}
		best.TimeMicro = t
	}
	return best, nil
}

// candidateBound sums the candidate's memoized per-phase admissible lower
// bounds.
func (o *Optimizer) candidateBound(topo topology.Network, m int, fields [][2]int) (float64, error) {
	total := 0.0
	for _, f := range fields {
		lo, w := f[0], f[1]
		v, err := o.boundPhases.get(phaseKey{topo: topo.Name(), lo: lo, w: w, m: m}, &o.memoHits, &o.memoMisses,
			func() (float64, error) { return o.params.PhaseLowerBoundOn(topo, m, lo, w) })
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// candidateCost screens one candidate: the left-to-right sum of its
// memoized per-phase costs — closed-form on the analytic backend, one
// compiled fragment replay per distinct (field, m) on the simulated path.
func (o *Optimizer) candidateCost(net *simnet.Network, topo topology.Network, m int, D partition.Partition, fields [][2]int) (float64, error) {
	if o.backend == Analytic {
		h, _ := topology.AsHypercube(topo)
		total := 0.0
		for _, f := range fields {
			lo, w := f[0], f[1]
			v, err := o.analyticPhases.get(phaseKey{topo: topo.Name(), lo: lo, w: w, m: m}, &o.memoHits, &o.memoMisses,
				func() (float64, error) {
					if h != nil {
						// Radix-2 fast path: eq. (3) directly, so the
						// phase-sum is bit-identical to Multiphase.
						return o.params.PhaseCost(m, h.Dim(), w), nil
					}
					return o.params.PhaseCostOn(topo, m, lo, w)
				})
			if err != nil {
				return 0, err
			}
			total += v
		}
		return total, nil
	}
	plan, err := exchange.NewPlanOn(topo, m, D)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for pi, f := range fields {
		pi := pi
		lo, w := f[0], f[1]
		v, err := o.simPhases.get(phaseKey{topo: topo.Name(), lo: lo, w: w, m: m}, &o.memoHits, &o.memoMisses,
			func() (float64, error) {
				res, err := net.RunSource(plan.CompilePhase(pi))
				if err != nil {
					return 0, err
				}
				o.countReplay(res)
				return res.Makespan, nil
			})
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// finalizeSimulated re-derives the winner's reported time from one
// whole-plan replay so Choice.TimeMicro matches Plan.Cost bit-for-bit
// (the screening phase-sum can differ in the last ulps from the
// single-pass makespan). A single-phase winner's fragment is row-for-row
// the whole plan, so its memoized value is reused without a replay —
// that is the expensive {d} candidate, and it is exactly the one the
// sweep's large-m points keep winning with.
func (o *Optimizer) finalizeSimulated(ctx context.Context, net *simnet.Network, topo topology.Network, m int, D partition.Partition) (float64, error) {
	plan, err := exchange.NewPlanOn(topo, m, D)
	if err != nil {
		return 0, err
	}
	if plan.NumPhases() == 1 {
		fields, err := topology.PhaseFields(topo, D)
		if err != nil {
			return 0, err
		}
		lo, w := fields[0][0], fields[0][1]
		return o.simPhases.get(phaseKey{topo: topo.Name(), lo: lo, w: w, m: m}, &o.memoHits, &o.memoMisses,
			func() (float64, error) {
				sp := obs.StartSpan(ctx, "replay")
				sp.SetAttr("kind", "fragment")
				sp.SetInt("m", int64(m))
				defer sp.End()
				res, err := net.RunSource(plan.CompilePhase(0))
				if err != nil {
					return 0, err
				}
				o.countReplay(res)
				sp.SetInt("replay_shards", int64(res.ReplayShards))
				return res.Makespan, nil
			})
	}
	sp := obs.StartSpan(ctx, "replay")
	sp.SetAttr("kind", "plan")
	sp.SetAttr("partition", D.String())
	sp.SetInt("m", int64(m))
	sp.SetInt("phases", int64(plan.NumPhases()))
	defer sp.End()
	res, err := plan.Cost(net)
	if err != nil {
		return 0, err
	}
	o.countReplay(res)
	sp.SetInt("replay_shards", int64(res.ReplayShards))
	return res.Makespan, nil
}

// PlanOn returns an executable exchange plan for the optimizer's best
// grouping at (net, m).
func (o *Optimizer) PlanOn(net topology.Network, m int) (*exchange.Plan, error) {
	c, err := o.BestOn(net, m)
	if err != nil {
		return nil, err
	}
	return exchange.NewPlanOn(net, m, c.Part)
}

// Table is the precomputed optimal-partition table over a block-size
// range, the artifact the paper suggests computing once and storing "for
// repeated future use" (§6).
type Table struct {
	// Topo is the topology's registry name; D its dimension count.
	Topo     string
	D        int
	Segments []model.HullSegment
}

// BuildTableOn sweeps block sizes [mLo, mHi] with the given step and
// returns the hull-of-optimality table for any topology. Concurrent
// identical sweeps share one build (a single tableKey singleflight
// instead of one rendezvous per swept point), and consecutive sweep
// points warm-start each other: each point's winner is evaluated first
// at the next point, so the incumbent starts tight and the phase memo —
// already hot from the previous point's fields — prices most candidates
// without any new replay.
func (o *Optimizer) BuildTableOn(net topology.Network, mLo, mHi, step int) (Table, error) {
	return o.BuildTableOnCtx(context.Background(), net, mLo, mHi, step)
}

// BuildTableOnCtx is BuildTableOn bounded by a context, checked between
// sweep points: a caller that no longer needs the table (the plan
// cache's fully-abandoned line fill) aborts the sweep after at most one
// more BestOn enumeration instead of paying for the whole hull. Joiners
// of an identical in-flight sweep share the initiator's fate — the plan
// cache's own per-line singleflight makes that pairing one-to-one.
func (o *Optimizer) BuildTableOnCtx(ctx context.Context, net topology.Network, mLo, mHi, step int) (Table, error) {
	if mLo < 0 || mHi < mLo {
		return Table{}, fmt.Errorf("optimize: bad sweep [%d,%d]", mLo, mHi)
	}
	if step < 1 {
		step = 1
	}
	tk := tableKey{topo: net.Name(), lo: mLo, hi: mHi, step: step}
	o.tableMu.Lock()
	if f, ok := o.tableFlight[tk]; ok {
		o.tableMu.Unlock()
		select {
		case <-f.done:
			return f.t, f.err
		case <-ctx.Done():
			return Table{}, ctx.Err()
		}
	}
	f := &tableFlight{done: make(chan struct{})}
	if o.tableFlight == nil {
		o.tableFlight = make(map[tableKey]*tableFlight)
	}
	o.tableFlight[tk] = f
	o.tableMu.Unlock()

	sp := obs.StartSpan(ctx, "optimizer")
	before := o.Stats()
	f.t, f.err = o.buildTableOn(ctx, net, mLo, mHi, step)
	if sp != nil {
		// Deltas are process-wide, so a concurrent build on another
		// topology inflates them; good enough for trace triage.
		after := o.Stats()
		sp.SetAttr("topology", net.Name())
		sp.SetInt("segments", int64(len(f.t.Segments)))
		sp.SetInt("evaluated", after.Evaluated-before.Evaluated)
		sp.SetInt("pruned", after.Pruned-before.Pruned)
		sp.SetInt("memo_hits", after.MemoHits-before.MemoHits)
		sp.SetInt("memo_misses", after.MemoMisses-before.MemoMisses)
	}
	sp.End()
	o.tableMu.Lock()
	delete(o.tableFlight, tk)
	o.tableMu.Unlock()
	close(f.done)
	return f.t, f.err
}

func (o *Optimizer) buildTableOn(ctx context.Context, net topology.Network, mLo, mHi, step int) (Table, error) {
	var segs []model.HullSegment
	var hint partition.Partition
	for m := mLo; m <= mHi; m += step {
		if err := ctx.Err(); err != nil {
			return Table{}, err
		}
		c, err := o.bestOn(ctx, net, m, hint)
		if err != nil {
			return Table{}, err
		}
		hint = c.Part
		if n := len(segs); n > 0 && segs[n-1].Part.Equal(c.Part) {
			segs[n-1].MaxBlock = m
			continue
		}
		segs = append(segs, model.HullSegment{Part: c.Part, MinBlock: m, MaxBlock: m})
	}
	return Table{Topo: net.Name(), D: net.NumDims(), Segments: segs}, nil
}

// Lookup returns the optimal partition for block size m from the table
// (the segment containing m, or the nearest segment for out-of-range m).
func (t Table) Lookup(m int) partition.Partition {
	seg, _ := t.LookupSegment(m)
	return seg.Part
}

// LookupSegment returns the hull segment answering block size m, and
// whether m actually lies inside it. ok=false means the nearest segment
// answered: below the table's low bound the first segment, above the
// high bound the last one (for large blocks the hull has converged to
// its asymptotic partition, so the clamp is the right extrapolation),
// and — for tables built with a sweep step > 1 — the next segment up
// when m falls in a gap between swept grid points. On an empty table the
// zero segment and false are returned.
func (t Table) LookupSegment(m int) (model.HullSegment, bool) {
	if len(t.Segments) == 0 {
		return model.HullSegment{}, false
	}
	i := sort.Search(len(t.Segments), func(i int) bool { return t.Segments[i].MaxBlock >= m })
	if i == len(t.Segments) {
		i = len(t.Segments) - 1
	}
	seg := t.Segments[i]
	return seg, m >= seg.MinBlock && m <= seg.MaxBlock
}

// Bounds returns the block-size range [lo, hi] the table covers; ok is
// false for an empty table.
func (t Table) Bounds() (lo, hi int, ok bool) {
	if len(t.Segments) == 0 {
		return 0, 0, false
	}
	return t.Segments[0].MinBlock, t.Segments[len(t.Segments)-1].MaxBlock, true
}
