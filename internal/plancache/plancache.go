// Package plancache is a sharded, concurrency-safe cache of optimal
// exchange plans keyed by (machine, topology, block size) — the serving
// tier the paper's §6 observation calls for: the partition enumeration
// "needs to be done only once and the optimal combination stored for
// repeated future use".
//
// The cache does not store one entry per block size. A cache line holds
// the hull-of-optimality table for one (machine, topology) pair — built
// once via optimize.BuildTableOn — and every block size resolves through
// Table.LookupSegment to one of its O(hull) segments, so millions of
// distinct m values collapse onto a handful of cached partitions. The
// per-request cost for a resident line is a binary search plus the
// closed-form time for the exact m asked.
//
// Concurrency: lines live in fixed shards (mutex + LRU list each); a
// missing line is built exactly once per cache — concurrent requests for
// the same (machine, topology) wait on a single in-flight build, and the
// build's BestOn sweeps ride optimize.Optimizer's own singleflight
// underneath. Capacity is bounded per shard with least-recently-used eviction, and
// hit/miss/evict/inflight counters expose the cache's behaviour to the
// service layer's /metrics.
//
// Snapshot/Restore serialize resident lines as JSON, tagged with the
// machine parameters they were computed for, so a restarted daemon
// answers from a warm cache without re-running a single enumeration.
package plancache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/topology"
)

// DefaultSweepHi is the upper block-size bound of the hull sweep a line
// is built over. Queries above it clamp to the last hull segment, which
// for every machine in the registry has converged to the asymptotically
// optimal partition well before this bound.
const DefaultSweepHi = 512

// Config parameterizes a Cache. The zero value is usable: all machines
// from model.Machines, 8 shards of 64 lines, analytic costing, a
// [0, DefaultSweepHi] step-1 sweep.
type Config struct {
	// Machines is the name → parameters registry requests resolve
	// against. Nil means model.Machines().
	Machines map[string]model.Params
	// Shards is the number of independent lock domains (default 8).
	Shards int
	// CapacityPerShard bounds resident lines per shard; the least
	// recently used line is evicted beyond it (default 64).
	CapacityPerShard int
	// SweepHi and SweepStep control the hull sweep a line is built over:
	// block sizes [0, SweepHi] in steps of SweepStep (defaults
	// DefaultSweepHi and 1). Step 1 makes a resident line's answer exact
	// for every in-range m, not just the swept grid.
	SweepHi   int
	SweepStep int
	// NewOptimizer builds the per-machine optimizer (default
	// optimize.New, the analytic backend).
	NewOptimizer func(model.Params) *optimize.Optimizer
	// OptWorkers is passed to each optimizer's SetWorkers: the candidate-
	// costing worker-pool size, clamped to GOMAXPROCS. Zero keeps the
	// optimizer's own default.
	OptWorkers int
	// ReplayWorkers is passed to each optimizer's SetReplayShards: the
	// event-engine shard count a simulated replay may split each
	// link-disjoint phase across. Sharded replays are bit-identical to
	// serial ones, so this only affects build latency, never answers.
	// Zero or one keeps replays serial.
	ReplayWorkers int
	// Fetch, when non-nil, is consulted inside the per-key singleflight
	// before a missing line is built locally — the cluster peer-fetch
	// hook. It may return (nil, nil) to decline (this replica owns the
	// key, or no peers are configured), a validated-importable LineData
	// on success, or an error after its own deadline/retry budget; any
	// error or invalid payload falls back to the local build, so a dead
	// or slow peer can never fail a request, only make it cost a build.
	Fetch func(ctx context.Context, machine, topo string) (*LineData, error)
	// MaxConcurrentBuilds bounds how many local hull builds may run at
	// once. Beyond the bound a miss is shed with ErrOverloaded instead
	// of queueing unboundedly (the service layer maps it to 503 +
	// Retry-After). Zero means unbounded — the pre-cluster behaviour.
	MaxConcurrentBuilds int
}

func (c Config) withDefaults() Config {
	if c.Machines == nil {
		c.Machines = model.Machines()
	} else {
		// Snapshot the caller's map: the cache reads it unlocked from
		// every shard, so later caller mutation must not be visible.
		reg := make(map[string]model.Params, len(c.Machines))
		for name, p := range c.Machines {
			reg[name] = p
		}
		c.Machines = reg
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.CapacityPerShard <= 0 {
		c.CapacityPerShard = 64
	}
	if c.SweepHi <= 0 {
		c.SweepHi = DefaultSweepHi
	}
	if c.SweepStep <= 0 {
		c.SweepStep = 1
	}
	if c.NewOptimizer == nil {
		c.NewOptimizer = optimize.New
	}
	return c
}

// Plan is one served answer: the optimal partition for (Machine,
// Topology, Block) together with its modeled time and per-phase
// breakdown, plus the hull segment the block size resolved through.
type Plan struct {
	Machine string
	// Topo is the topology registry name the plan answers for; D is its
	// dimension count (the cube dimension on a hypercube).
	Topo      string
	D         int
	Block     int
	Part      partition.Partition
	TimeMicro float64
	Phases    []model.PhaseBreakdown
	// SegMin and SegMax bound the hull segment that answered: every
	// block size in [SegMin, SegMax] shares this partition.
	SegMin, SegMax int
	// InRange reports whether Block lay inside the answering segment;
	// false means the nearest segment answered — for blocks outside the
	// line's sweep (the clamping extrapolation, exact beyond the hull's
	// convergence) or, on a coarse-step sweep (SweepStep > 1), for
	// blocks falling in a gap between swept grid points.
	InRange bool
}

// Stats is a point-in-time counter snapshot. The JSON names are part of
// the service's /metrics wire format.
type Stats struct {
	// Hits counts requests answered from a resident line.
	Hits int64 `json:"hits"`
	// Misses counts requests that had to build (or wait for) a line.
	Misses int64 `json:"misses"`
	// Evictions counts lines dropped by the per-shard LRU bound.
	Evictions int64 `json:"evictions"`
	// Inflight is the number of line builds running right now.
	Inflight int64 `json:"inflight"`
	// Builds counts completed line builds (restores not included).
	Builds int64 `json:"builds"`
	// PeerImports counts misses filled by the Fetch hook (a peer line
	// imported instead of built locally).
	PeerImports int64 `json:"peer_imports"`
	// Shed counts misses refused with ErrOverloaded because the
	// concurrent-build bound was reached.
	Shed int64 `json:"shed"`
	// Lines and Segments are the resident totals.
	Lines    int `json:"lines"`
	Segments int `json:"segments"`
}

// lineKey identifies one cache line: the machine's parameter set and the
// network shape the hull was enumerated for.
type lineKey struct {
	machine string
	topo    string
}

// line is one resident hull table.
type line struct {
	key              lineKey
	net              topology.Network
	table            optimize.Table
	sweepLo, sweepHi int
	sweepStep        int
}

// flight is one in-progress line fill (peer fetch, then local build);
// latecomers join it and wait on done. The fill runs in its own
// goroutine under its own context: a joiner whose request context ends
// departs immediately without disturbing the others, and only when the
// LAST waiter departs is the fill's context cancelled — so one
// disconnected client aborts nothing for anyone else, a fully
// abandoned fill stops at its next checkpoint, and a fill that
// completes anyway still inserts its line for future callers.
type flight struct {
	done    chan struct{}
	line    *line
	err     error
	built   bool // a local build ran (as opposed to a peer import)
	waiters atomic.Int64
	cancel  context.CancelFunc
}

type shard struct {
	mu     sync.Mutex
	lines  map[lineKey]*list.Element // value: *line
	lru    *list.List                // front = most recent
	flight map[lineKey]*flight
}

// Cache is the sharded plan cache. Safe for concurrent use.
type Cache struct {
	cfg    Config
	shards []*shard

	// buildSem bounds concurrent local hull builds (nil = unbounded).
	buildSem chan struct{}

	optMu sync.Mutex
	opts  map[string]*optimize.Optimizer

	hits, misses, evictions, inflight, builds atomic.Int64
	peerImports, shed                         atomic.Int64
}

// New returns a cache with the given configuration (zero value ok).
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{cfg: cfg, opts: make(map[string]*optimize.Optimizer)}
	if cfg.MaxConcurrentBuilds > 0 {
		c.buildSem = make(chan struct{}, cfg.MaxConcurrentBuilds)
	}
	c.shards = make([]*shard, cfg.Shards)
	for i := range c.shards {
		c.shards[i] = &shard{
			lines:  make(map[lineKey]*list.Element),
			lru:    list.New(),
			flight: make(map[lineKey]*flight),
		}
	}
	return c
}

// Machines returns a copy of the registry the cache resolves machine
// names against; mutating it does not affect the cache.
func (c *Cache) Machines() map[string]model.Params {
	out := make(map[string]model.Params, len(c.cfg.Machines))
	for name, p := range c.cfg.Machines {
		out[name] = p
	}
	return out
}

// Resolve canonicalizes a machine name against the cache's registry: an
// exact registry key wins, otherwise the global alias/case rules
// (model.CanonicalName) are applied and the canonical spelling is looked
// up. The service layer resolves every request through this, so a cache
// built over a custom registry never silently falls back to the built-in
// constants.
func (c *Cache) Resolve(machine string) (string, model.Params, error) {
	return c.resolve(machine)
}

func (c *Cache) resolve(machine string) (string, model.Params, error) {
	if p, ok := c.cfg.Machines[machine]; ok {
		return machine, p, nil
	}
	if canon, err := model.CanonicalName(machine); err == nil {
		if p, ok := c.cfg.Machines[canon]; ok {
			return canon, p, nil
		}
	}
	// List this cache's registry, not the global one: a custom-registry
	// cache serves exactly these names.
	names := make([]string, 0, len(c.cfg.Machines))
	for name := range c.cfg.Machines {
		names = append(names, name)
	}
	sort.Strings(names)
	return "", model.Params{}, fmt.Errorf("unknown machine %q (valid: %s)",
		machine, strings.Join(names, ", "))
}

func (c *Cache) shardFor(key lineKey) *shard {
	h := fnv.New32a()
	h.Write([]byte(key.machine))
	h.Write([]byte{0})
	h.Write([]byte(key.topo))
	return c.shards[h.Sum32()%uint32(len(c.shards))]
}

// MaxTopologyNodes bounds the networks a cache will build hulls for —
// the optimizer's own enumeration limit, enforced here at request
// validation time so an oversized topology is a caller error, not a
// build failure.
const MaxTopologyNodes = 1 << 20

// ResolveTopology validates a topology registry spec for serving:
// parse errors and oversized networks come back as request-validation
// errors (the service layer maps them to 400).
func ResolveTopology(spec string) (topology.Network, error) {
	net, err := topology.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if err := checkServable(net); err != nil {
		return nil, err
	}
	return net, nil
}

// MaxMixedRadixDims bounds unequal-radix topologies at request
// validation: their optimizer enumeration is over 2^(k−1) ordered
// compositions, re-run for each of the ~SweepHi block sizes of a hull
// build, so the node-count bound alone would let one request schedule
// an exponential amount of work. 12 dimensions cap a build at
// 2^11 · sweep candidates. Uniform-radix shapes (hypercubes, square
// tori) enumerate only p(k) partitions and are not restricted.
const MaxMixedRadixDims = 12

// checkServable enforces the enumeration-cost bounds on every request
// path — including resolved topologies that never went through a spec
// string — so an oversized topology is always a caller error, never a
// BuildError-classified (500-mapped) hull failure.
func checkServable(net topology.Network) error {
	if net.Nodes() > MaxTopologyNodes {
		return fmt.Errorf("plancache: %s exceeds the serving limit of %d nodes",
			net.Name(), MaxTopologyNodes)
	}
	if _, ok := net.(*topology.Hypercube); ok {
		return nil // uniform radix 2 by construction; keep the hot Get allocation-free
	}
	dims := net.Dims()
	uniform := true
	for _, r := range dims {
		if r != dims[0] {
			uniform = false
			break
		}
	}
	if !uniform && len(dims) > MaxMixedRadixDims {
		return fmt.Errorf("plancache: %s has %d unequal-radix dimensions, over the serving limit of %d",
			net.Name(), len(dims), MaxMixedRadixDims)
	}
	return nil
}

// optimizer returns (creating once) the per-machine optimizer.
func (c *Cache) optimizer(name string, p model.Params) *optimize.Optimizer {
	c.optMu.Lock()
	defer c.optMu.Unlock()
	if o, ok := c.opts[name]; ok {
		return o
	}
	o := c.cfg.NewOptimizer(p)
	if c.cfg.OptWorkers > 0 {
		o.SetWorkers(c.cfg.OptWorkers)
	}
	if c.cfg.ReplayWorkers > 1 {
		o.SetReplayShards(c.cfg.ReplayWorkers)
	}
	c.opts[name] = o
	return o
}

// OptimizerStats aggregates the enumeration counters — evaluations,
// evaluated/pruned candidates, memo hits/misses — across every
// per-machine optimizer the cache has created. The service layer exposes
// the sum on /metrics next to the cache counters.
func (c *Cache) OptimizerStats() optimize.Stats {
	c.optMu.Lock()
	defer c.optMu.Unlock()
	var sum optimize.Stats
	for _, o := range c.opts {
		sum.Add(o.Stats())
	}
	return sum
}

// GetOn answers one (machine, topology, m) query with the full plan
// detail; topo is a topology registry spec such as "torus-4x4x4".
func (c *Cache) GetOn(machine, topo string, m int) (Plan, error) {
	net, err := ResolveTopology(topo)
	if err != nil {
		return Plan{}, err
	}
	return c.GetFor(context.Background(), machine, net, m)
}

// GetFor is GetOn with an already-resolved topology — the form the
// service layer uses so a request's spec is parsed exactly once — bounded
// by a request context: when ctx ends the caller returns ctx.Err()
// immediately while any in-flight line fill it initiated or joined
// continues for its remaining waiters (and is cancelled only when fully
// abandoned), so a disconnected client stops paying for a hull build it
// will never read.
func (c *Cache) GetFor(ctx context.Context, machine string, net topology.Network, m int) (Plan, error) {
	if m < 0 {
		return Plan{}, fmt.Errorf("plancache: negative block size %d", m)
	}
	name, prm, ln, _, err := c.resolveLine(ctx, machine, net)
	if err != nil {
		return Plan{}, err
	}
	return c.answer(name, prm, ln, m)
}

// LookupFor is the fast path: the optimal partition for (machine, net,
// m) with no per-request breakdown — the form core.System uses so its
// own topology handle is never re-parsed. The returned slice is shared
// with the cache line and must be treated as read-only.
func (c *Cache) LookupFor(machine string, net topology.Network, m int) (partition.Partition, error) {
	if m < 0 {
		return nil, fmt.Errorf("plancache: negative block size %d", m)
	}
	_, _, ln, _, err := c.resolveLine(context.Background(), machine, net)
	if err != nil {
		return nil, err
	}
	return ln.table.Lookup(m), nil
}

// HullFor returns the resident hull table for (machine, net), building
// the line if needed; ctx bounds the wait as in GetFor.
func (c *Cache) HullFor(ctx context.Context, machine string, net topology.Network) (optimize.Table, error) {
	_, _, ln, _, err := c.resolveLine(ctx, machine, net)
	if err != nil {
		return optimize.Table{}, err
	}
	return ln.table, nil
}

// WarmOn pre-builds the line for (machine, topology registry spec), so
// the first query pays no enumeration. It reports whether a build
// actually ran (false when the line was already resident or another
// caller's build was joined).
func (c *Cache) WarmOn(machine, topo string) (built bool, err error) {
	net, err := ResolveTopology(topo)
	if err != nil {
		return false, err
	}
	return c.WarmFor(context.Background(), machine, net)
}

// WarmFor is WarmOn with an already-resolved topology — the form the
// service layer's fault paths use, where the network is a degraded
// overlay rather than a registry spec, and the peer-serving endpoint
// uses to build a line it owns on demand. ctx bounds the wait as in
// GetFor.
func (c *Cache) WarmFor(ctx context.Context, machine string, net topology.Network) (built bool, err error) {
	_, _, _, built, err = c.resolveLine(ctx, machine, net)
	return built, err
}

// resolveLine resolves the machine name, enforces the serving bounds on net,
// and returns the (possibly freshly filled) line for the pair.
func (c *Cache) resolveLine(ctx context.Context, machine string, net topology.Network) (name string, prm model.Params, ln *line, built bool, err error) {
	if name, prm, err = c.resolve(machine); err != nil {
		return "", model.Params{}, nil, false, err
	}
	if err = checkServable(net); err != nil {
		return "", model.Params{}, nil, false, err
	}
	ln, built, err = c.lineFor(ctx, name, prm, net)
	return name, prm, ln, built, err
}

// answer resolves m through a resident line.
func (c *Cache) answer(name string, prm model.Params, ln *line, m int) (Plan, error) {
	seg, inRange := ln.table.LookupSegment(m)
	t, phases, err := prm.MultiphaseOn(ln.net, m, seg.Part)
	if err != nil {
		return Plan{}, fmt.Errorf("plancache: pricing %s/%s m=%d: %w", name, ln.key.topo, m, err)
	}
	return Plan{
		Machine:   name,
		Topo:      ln.key.topo,
		D:         ln.net.NumDims(),
		Block:     m,
		Part:      seg.Part,
		TimeMicro: t,
		Phases:    phases,
		SegMin:    seg.MinBlock,
		SegMax:    seg.MaxBlock,
		InRange:   inRange,
	}, nil
}

// ErrOverloaded marks a miss shed because the concurrent-build bound
// (Config.MaxConcurrentBuilds) was reached: the line is not resident
// and the cache refused to queue another hull build. The serving tier
// maps it to 503 with Retry-After.
var ErrOverloaded = errors.New("build capacity exhausted")

// lineFor returns the resident line for (name, topology), filling it
// under a per-key singleflight on a miss (peer fetch first when a Fetch
// hook is configured, local build otherwise). built is true only for
// the caller that initiated a fill that ran a local build (not for
// hits, joined waiters, or peer imports).
//
// ctx bounds this caller's WAIT, not the fill: when ctx ends the
// caller gets ctx.Err() immediately while the fill keeps running for
// the remaining waiters — and when the last waiter departs the fill is
// cancelled at its next checkpoint. Either way the flight entry is
// removed when the fill goroutine finishes, so a cancelled fill never
// poisons the key: the next caller simply starts a fresh one.
func (c *Cache) lineFor(ctx context.Context, name string, prm model.Params, net topology.Network) (ln *line, built bool, err error) {
	key := lineKey{machine: name, topo: net.Name()}
	sh := c.shardFor(key)

	outcome := "hit"
	sp := obs.StartSpan(ctx, "cache")
	sp.SetAttr("machine", name)
	sp.SetAttr("topology", key.topo)
	defer func() {
		if err != nil {
			sp.SetAttr("error", "true")
		}
		sp.SetAttr("outcome", outcome)
		sp.End()
	}()

	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		sh.mu.Lock()
		if el, ok := sh.lines[key]; ok {
			sh.lru.MoveToFront(el)
			sh.mu.Unlock()
			c.hits.Add(1)
			return el.Value.(*line), false, nil
		}
		if f, ok := sh.flight[key]; ok {
			f.waiters.Add(1)
			sh.mu.Unlock()
			c.misses.Add(1)
			outcome = "join"
			ln, err, retry := c.awaitFlight(ctx, f)
			if retry {
				// We joined a fill that was abandoned (every earlier
				// waiter departed before we arrived and it was cancelled
				// at a checkpoint). Our context is still live, so start
				// over; the dead flight is removed before done closes,
				// so the retry finds a clean slate.
				continue
			}
			return ln, false, err
		}
		// Detach drops the initiating request's cancellation (the fill
		// must outlive any one waiter) but keeps its values, so spans
		// recorded inside the fill land on that request's trace.
		fctx, cancel := context.WithCancel(obs.Detach(ctx))
		f := &flight{done: make(chan struct{}), cancel: cancel}
		f.waiters.Add(1)
		sh.flight[key] = f
		sh.mu.Unlock()
		c.misses.Add(1)
		c.inflight.Add(1)
		outcome = "miss"
		go c.runFlight(fctx, f, sh, key, name, prm, net)
		ln, err, retry := c.awaitFlight(ctx, f)
		if retry {
			continue
		}
		// f.built is only safe to read once the fill has published; a
		// caller departing early (ctx end) reports built=false.
		built := err == nil && flightDone(f) && f.built
		if err == nil {
			if built {
				outcome = "build"
			} else {
				outcome = "peer"
			}
		}
		return ln, built, err
	}
}

// awaitFlight waits for a joined flight to finish or the caller's
// context to end, whichever is first, and maintains the flight's waiter
// count: the departing last waiter cancels the fill. retry is true when
// the flight died of its own cancellation while THIS caller is still
// live — the caller should start over rather than surface an error it
// did not cause.
func (c *Cache) awaitFlight(ctx context.Context, f *flight) (ln *line, err error, retry bool) {
	defer func() {
		if f.waiters.Add(-1) == 0 {
			f.cancel()
		}
	}()
	select {
	case <-f.done:
		if f.err != nil && errors.Is(f.err, context.Canceled) && ctx.Err() == nil {
			return nil, nil, true
		}
		return f.line, f.err, false
	case <-ctx.Done():
		return nil, ctx.Err(), false
	}
}

// flightDone reports whether f has published its result, making its
// line/err/built fields safe to read.
func flightDone(f *flight) bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// runFlight performs one fill: peer fetch (when configured), then local
// build, publishing the result and retiring the flight entry. It runs
// detached from any single request so one disconnected client cannot
// abort work others are waiting on.
func (c *Cache) runFlight(ctx context.Context, f *flight, sh *shard, key lineKey, name string, prm model.Params, net topology.Network) {
	f.line, f.built, f.err = c.fill(ctx, name, prm, net)

	sh.mu.Lock()
	if f.err == nil {
		c.insertLocked(sh, f.line)
		if f.built {
			c.builds.Add(1)
		} else {
			c.peerImports.Add(1)
		}
	}
	delete(sh.flight, key)
	sh.mu.Unlock()
	c.inflight.Add(-1)
	f.cancel()
	close(f.done)
}

// fill obtains one line: from the owning peer when the Fetch hook
// accepts the key, by a bounded local build otherwise. A fetch error or
// an invalid peer payload falls back to the local build — a dead peer
// costs time, never correctness.
func (c *Cache) fill(ctx context.Context, name string, prm model.Params, net topology.Network) (*line, bool, error) {
	if c.cfg.Fetch != nil {
		ld, err := c.cfg.Fetch(ctx, name, net.Name())
		if err == nil && ld != nil {
			if ln, ierr := c.lineFromPeer(*ld, name, prm, net); ierr == nil {
				return ln, false, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	if c.buildSem != nil {
		select {
		case c.buildSem <- struct{}{}:
			defer func() { <-c.buildSem }()
		default:
			c.shed.Add(1)
			return nil, false, fmt.Errorf("plancache: building %s/%s: %w", name, net.Name(), ErrOverloaded)
		}
	}
	sp := obs.StartSpan(ctx, "build")
	sp.SetAttr("machine", name)
	sp.SetAttr("topology", net.Name())
	ln, err := c.build(ctx, name, prm, net)
	if err != nil {
		sp.SetAttr("error", "true")
	}
	sp.End()
	return ln, err == nil, err
}

// lineFromPeer validates a fetched peer line against this request and
// this cache's configuration before accepting it in place of a build.
func (c *Cache) lineFromPeer(ld LineData, name string, prm model.Params, net topology.Network) (*line, error) {
	if ld.Machine != name || ld.Topology != net.Name() {
		return nil, fmt.Errorf("plancache: peer line is for %s/%s, want %s/%s",
			ld.Machine, ld.Topology, name, net.Name())
	}
	if ld.Params != prm {
		return nil, fmt.Errorf("plancache: peer line for %s/%s computed under different machine parameters",
			name, net.Name())
	}
	if ld.SweepLo != 0 || ld.SweepHi != c.cfg.SweepHi || ld.SweepStep != c.cfg.SweepStep {
		return nil, fmt.Errorf("plancache: peer line for %s/%s swept [%d,%d] step %d, want [0,%d] step %d",
			name, net.Name(), ld.SweepLo, ld.SweepHi, ld.SweepStep, c.cfg.SweepHi, c.cfg.SweepStep)
	}
	return restoreLine(ld)
}

// BuildError marks a failure inside a line build (the hull sweep), as
// opposed to request-validation failures: a serving tier maps the former
// to 500 and the latter to 400.
type BuildError struct {
	Machine string
	Topo    string
	Err     error
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("plancache: building %s/%s: %v", e.Machine, e.Topo, e.Err)
}

func (e *BuildError) Unwrap() error { return e.Err }

// build runs the hull sweep for one line. ctx is the fill's context: a
// fully abandoned fill aborts between sweep points (context errors pass
// through unwrapped so the flight machinery can classify them).
func (c *Cache) build(ctx context.Context, name string, prm model.Params, net topology.Network) (*line, error) {
	opt := c.optimizer(name, prm)
	tbl, err := opt.BuildTableOnCtx(ctx, net, 0, c.cfg.SweepHi, c.cfg.SweepStep)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &BuildError{Machine: name, Topo: net.Name(), Err: err}
	}
	return &line{
		key:       lineKey{machine: name, topo: net.Name()},
		net:       net,
		table:     tbl,
		sweepLo:   0,
		sweepHi:   c.cfg.SweepHi,
		sweepStep: c.cfg.SweepStep,
	}, nil
}

// insertLocked adds a line to its shard and evicts past capacity. The
// shard mutex must be held.
func (c *Cache) insertLocked(sh *shard, ln *line) {
	if el, ok := sh.lines[ln.key]; ok {
		el.Value = ln
		sh.lru.MoveToFront(el)
		return
	}
	sh.lines[ln.key] = sh.lru.PushFront(ln)
	for sh.lru.Len() > c.cfg.CapacityPerShard {
		back := sh.lru.Back()
		victim := back.Value.(*line)
		sh.lru.Remove(back)
		delete(sh.lines, victim.key)
		c.evictions.Add(1)
	}
}

// InvalidateWhere drops every resident line whose (machine, topology
// name) matches pred and returns how many were removed. In-flight
// builds are not cancelled — a build that completes after its key was
// invalidated re-inserts, so callers racing fault updates should
// invalidate after the fault state changes, which this serving tier's
// fault handler does. The service layer uses it to retire plans keyed
// under a superseded health digest when a fabric's fault set changes.
func (c *Cache) InvalidateWhere(pred func(machine, topo string) bool) int {
	removed := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			ln := el.Value.(*line)
			if pred(ln.key.machine, ln.key.topo) {
				sh.lru.Remove(el)
				delete(sh.lines, ln.key)
				removed++
			}
			el = next
		}
		sh.mu.Unlock()
	}
	return removed
}

// Stats returns a counter snapshot.
func (c *Cache) Stats() Stats {
	s := Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		Inflight:    c.inflight.Load(),
		Builds:      c.builds.Load(),
		PeerImports: c.peerImports.Load(),
		Shed:        c.shed.Load(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Lines += sh.lru.Len()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			s.Segments += len(el.Value.(*line).table.Segments)
		}
		sh.mu.Unlock()
	}
	return s
}
