// Package service exposes the plan cache as an HTTP JSON API — the
// serving tier that turns the paper's "compute once, store for repeated
// future use" artifact (§6) into a queryable product:
//
//	GET  /v1/plan?machine=ipsc860&d=7&m=40   best partition + cost breakdown
//	POST /v1/cost                            cost an explicit partition
//	                                         (analytic + compiled-trace simulation)
//	GET  /v1/hull?machine=ipsc860&d=7        the hull-of-optimality table
//	POST /v1/batch                           many plan queries, one round trip
//	GET  /healthz                            liveness
//	GET  /metrics                            cache + per-endpoint latency counters
//
// Request validation maps to proper status codes (400 for bad input with
// the valid machine set listed, 405 for wrong methods, 413 for oversized
// batches); all responses are JSON. The handler is stateless beyond the
// shared plancache.Cache and its counters, so it is safe behind any
// number of listeners.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/partition"
	"repro/internal/plancache"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Config parameterizes a Server. Only Cache is required.
type Config struct {
	// Cache is the shared plan cache (required).
	Cache *plancache.Cache
	// DefaultMachine answers requests that omit ?machine= (default
	// "ipsc860").
	DefaultMachine string
	// BatchWorkers bounds the fan-out of /v1/batch (default GOMAXPROCS).
	BatchWorkers int
	// MaxBatch bounds the query count of one /v1/batch call (default
	// 4096); larger bodies get 413.
	MaxBatch int
	// CostMaxDim bounds the dimension /v1/cost will simulate (default
	// 12). The compiled-trace replay is fast, but its event count grows
	// like 4^d; a serving tier must refuse work that large per request.
	CostMaxDim int
	// ReplayWorkers is the event-engine shard count a /v1/cost replay may
	// split each link-disjoint phase across (simnet sharded replay).
	// Sharded results are bit-identical to serial ones, so this only
	// affects latency. Zero or one keeps replays serial.
	ReplayWorkers int
	// PlanMaxDim bounds the dimension /v1/plan, /v1/hull and /v1/batch
	// accept (default 20, the optimizer's own limit). A daemon whose
	// cache costs hull sweeps by simulation must set this near
	// CostMaxDim: one cache miss runs a full sweep of BestOn calls, each
	// hundreds of times the work of a single /v1/cost.
	PlanMaxDim int
	// RebuildAttempts bounds the background retry loop that rebuilds a
	// plan line after a degraded-fabric build failure (default 4).
	RebuildAttempts int
	// RebuildBackoff is the initial delay between rebuild attempts,
	// doubled per attempt (default 250ms).
	RebuildBackoff time.Duration
	// Logger receives fault-state transitions, rebuild outcomes, and
	// recovered handler panics (default slog.Default()).
	Logger *slog.Logger
	// Tracer records per-request span trees served at /debug/traces and
	// the per-stage latency histograms on /metrics. Nil gets a default
	// ring of obs.DefaultTraceCapacity traces — tracing is cheap enough
	// to always be on.
	Tracer *obs.Tracer
	// Cluster, when non-nil, is the peer layer this replica belongs to:
	// /metrics and /readyz surface peer up/down/breaker state, and
	// accepted /v1/faults updates are forwarded to all live peers. Nil
	// means a standalone daemon — every clustered behaviour is off and
	// the server is exactly the pre-cluster pland.
	Cluster *cluster.Cluster
}

func (c Config) withDefaults() Config {
	if c.DefaultMachine == "" {
		c.DefaultMachine = "ipsc860"
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.CostMaxDim <= 0 {
		c.CostMaxDim = 12
	}
	if c.CostMaxDim > optimize.MaxSimulatedDim {
		c.CostMaxDim = optimize.MaxSimulatedDim
	}
	if c.PlanMaxDim <= 0 || c.PlanMaxDim > 20 {
		c.PlanMaxDim = 20 // optimize.BestOn's own 2^20-node bound
	}
	if c.RebuildAttempts <= 0 {
		c.RebuildAttempts = 4
	}
	if c.RebuildBackoff <= 0 {
		c.RebuildBackoff = 250 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(0)
	}
	return c
}

// endpointStats aggregates one route's latency counters.
type endpointStats struct {
	count    atomic.Int64
	errors   atomic.Int64
	totalUS  atomic.Int64
	maxUS    atomic.Int64
	inflight atomic.Int64
	hist     obs.Histogram
}

// Server is the HTTP facade over a plan cache.
type Server struct {
	cfg   Config
	cache *plancache.Cache
	start time.Time

	mu    sync.Mutex
	stats map[string]*endpointStats

	// Fault state: per-fabric fault sets keyed by base topology name,
	// and the dedup set of in-flight background rebuilds (see faults.go).
	faultMu    sync.Mutex
	faults     map[string]topology.FaultSet
	rebuilding map[string]bool

	faultUpdates, degradedServes atomic.Int64
	rebuilds, rebuildFailures    atomic.Int64
	panics                       atomic.Int64
	shed, earlyAborts            atomic.Int64

	// ready gates /readyz: set by the daemon once snapshot restore,
	// warmup, and cluster join (probe start + warm fan-out) are done, so
	// a load balancer never routes to a cold replica.
	ready atomic.Bool
}

// New returns a server over the given configuration.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Cache == nil {
		return nil, fmt.Errorf("service: Config.Cache is required")
	}
	// Resolve through the cache so aliases work and the stored default
	// is the canonical name every response echoes.
	name, _, err := cfg.Cache.Resolve(cfg.DefaultMachine)
	if err != nil {
		return nil, fmt.Errorf("service: default machine: %w", err)
	}
	cfg.DefaultMachine = name
	return &Server{
		cfg:        cfg,
		cache:      cfg.Cache,
		start:      time.Now(),
		stats:      make(map[string]*endpointStats),
		faults:     make(map[string]topology.FaultSet),
		rebuilding: make(map[string]bool),
	}, nil
}

// Handler returns the routed, instrumented handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/plan", s.instrument("/v1/plan", http.MethodGet, s.handlePlan))
	mux.HandleFunc("/v1/cost", s.instrument("/v1/cost", http.MethodPost, s.handleCost))
	mux.HandleFunc("/v1/hull", s.instrument("/v1/hull", http.MethodGet, s.handleHull))
	mux.HandleFunc("/v1/batch", s.instrument("/v1/batch", http.MethodPost, s.handleBatch))
	mux.HandleFunc("/v1/faults", s.instrument("/v1/faults", http.MethodPost, s.handleFaults))
	mux.HandleFunc(cluster.PeerLinePath, s.instrument(cluster.PeerLinePath, http.MethodGet, s.handlePeerLine))
	mux.HandleFunc(cluster.PeerSnapshotPath, s.instrument(cluster.PeerSnapshotPath, http.MethodGet, s.handlePeerSnapshot))
	mux.HandleFunc("/healthz", s.instrument("/healthz", http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/readyz", s.instrument("/readyz", http.MethodGet, s.handleReadyz))
	mux.HandleFunc("/metrics", s.instrument("/metrics", http.MethodGet, s.handleMetrics))
	mux.HandleFunc("/debug/traces", s.instrument("/debug/traces", http.MethodGet, s.handleTraces))
	return mux
}

// SetReady flips the /readyz verdict. The daemon calls it with true
// once restore + warmup + ring join have completed (and with false
// never — a live server stays ready; liveness is /healthz's job).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// instrument wraps a handler with request-ID assignment, tracing,
// method enforcement, panic recovery, and latency accounting.
func (s *Server) instrument(name, method string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	st := s.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		begin := time.Now()
		id := r.Header.Get(obs.RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		// Echo the ID so clients — and the fetching replica on a peer
		// hop — can join their logs to this replica's trace of the same
		// request.
		w.Header().Set(obs.RequestIDHeader, id)
		ctx, root := s.cfg.Tracer.StartRequest(r.Context(), id, name)
		r = r.WithContext(ctx)

		st.inflight.Add(1)
		// A panic that unwinds past recovered (a second panic inside its
		// recovery) still reaches this defer, so the request is counted,
		// its duration recorded, and the in-flight gauge released no
		// matter how the handler dies.
		code := http.StatusInternalServerError
		defer func() {
			us := time.Since(begin).Microseconds()
			st.inflight.Add(-1)
			st.count.Add(1)
			st.totalUS.Add(us)
			st.hist.Observe(us)
			if code >= 400 {
				st.errors.Add(1)
			}
			for {
				old := st.maxUS.Load()
				if us <= old || st.maxUS.CompareAndSwap(old, us) {
					break
				}
			}
			if root != nil {
				root.SetInt("status", int64(code))
				root.End()
			}
		}()
		if r.Method != method {
			w.Header().Set("Allow", method)
			code = http.StatusMethodNotAllowed
			writeError(w, code, fmt.Sprintf("method %s not allowed, use %s", r.Method, method))
			return
		}
		code = s.recovered(h, w, r)
	}
}

// recovered runs one handler with panic recovery: a panicking handler
// costs its request a 500, a panics_total tick, and a stack trace in
// the log — never the whole daemon. If the handler had already written
// its response when it panicked, the late 500 header is a no-op (the
// http package drops it with a log line); the counter still ticks.
func (s *Server) recovered(h func(http.ResponseWriter, *http.Request) int, w http.ResponseWriter, r *http.Request) (code int) {
	defer func() {
		if rec := recover(); rec != nil {
			s.panics.Add(1)
			s.cfg.Logger.Error("panic serving request",
				"method", r.Method, "path", r.URL.Path,
				"request_id", obs.RequestID(r.Context()),
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			code = writeError(w, http.StatusInternalServerError, "internal error")
		}
	}()
	return h(w, r)
}

func (s *Server) endpoint(name string) *endpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stats[name]
	if !ok {
		st = &endpointStats{}
		s.stats[name] = st
	}
	return st
}

// --- wire types ---

type errorResponse struct {
	Error string `json:"error"`
}

type phaseJSON struct {
	SubcubeDim int     `json:"subcube_dim"`
	EffBlock   int     `json:"eff_block"`
	Alg        string  `json:"alg"`
	TimeUS     float64 `json:"time_us"`
}

type segmentJSON struct {
	Partition []int `json:"partition"`
	MinBlock  int   `json:"min_block"`
	MaxBlock  int   `json:"max_block"`
}

// PlanResponse is the /v1/plan wire format.
type PlanResponse struct {
	Machine     string      `json:"machine"`
	Topology    string      `json:"topology"`
	D           int         `json:"d"`
	M           int         `json:"m"`
	Partition   []int       `json:"partition"`
	PredictedUS float64     `json:"predicted_us"`
	Phases      []phaseJSON `json:"phases"`
	Segment     segmentJSON `json:"segment"`
	InRange     bool        `json:"in_range"`
	// Health is the fabric's fault digest at answer time ("ok" when
	// healthy). Degraded marks a last-known-good fallback: the fabric
	// carries faults the plan could not be rebuilt under, so this answer
	// ignores them; a background rebuild is in flight.
	Health   string `json:"health"`
	Degraded bool   `json:"degraded,omitempty"`
}

func planResponse(p plancache.Plan) PlanResponse {
	resp := PlanResponse{
		Machine:     p.Machine,
		Topology:    p.Topo,
		D:           p.D,
		M:           p.Block,
		Partition:   append([]int{}, p.Part...),
		PredictedUS: p.TimeMicro,
		Phases:      phasesJSON(p.Phases),
		Segment: segmentJSON{
			Partition: append([]int{}, p.Part...),
			MinBlock:  p.SegMin,
			MaxBlock:  p.SegMax,
		},
		InRange: p.InRange,
	}
	return resp
}

func phasesJSON(phases []model.PhaseBreakdown) []phaseJSON {
	out := make([]phaseJSON, 0, len(phases))
	for _, ph := range phases {
		out = append(out, phaseJSON{
			SubcubeDim: ph.SubcubeDim,
			EffBlock:   ph.EffBlock,
			Alg:        ph.Alg.String(),
			TimeUS:     ph.Time,
		})
	}
	return out
}

// --- handlers; each returns the HTTP status it wrote ---

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) int {
	machine, topo, m, errCode := s.planQuery(w, r)
	if errCode != 0 {
		return errCode
	}
	p, health, degraded, err := s.planFor(r.Context(), machine, topo, m)
	if err != nil {
		return s.writeCacheError(w, r, err)
	}
	resp := planResponse(p)
	resp.Health = health
	resp.Degraded = degraded
	return writeJSON(w, http.StatusOK, resp)
}

// checkPlanDim enforces the server's dimension bound on cache-building
// endpoints; returns an error message for out-of-bound d.
func (s *Server) checkPlanDim(d int) error {
	if d < 0 || d > s.cfg.PlanMaxDim {
		return fmt.Errorf("d=%d out of this server's range [0,%d]", d, s.cfg.PlanMaxDim)
	}
	return nil
}

// resolveTopo turns a request's topology/d pair into a resolved network
// within the server's serving bound: an explicit topology field wins,
// otherwise d selects the hypercube. The bound caps both the node count
// (2^PlanMaxDim — a hull build's cost scales with it) and, for the
// hypercube path, d itself. Handlers pass the returned Network straight
// to the cache's *For entry points, so a request's spec is parsed
// exactly once.
func (s *Server) resolveTopo(topo string, d string) (topology.Network, error) {
	if topo == "" {
		if d == "" {
			return nil, fmt.Errorf("missing required parameter %q (or %q)", "d", "topology")
		}
		dv, err := queryInt(d, "d")
		if err != nil {
			return nil, err
		}
		if err := s.checkPlanDim(dv); err != nil {
			return nil, err
		}
		return topology.New(dv)
	}
	net, err := plancache.ResolveTopology(topo)
	if err != nil {
		return nil, err
	}
	if net.Nodes() > 1<<s.cfg.PlanMaxDim {
		return nil, fmt.Errorf("topology %s has %d nodes, over this server's bound of %d",
			net.Name(), net.Nodes(), 1<<s.cfg.PlanMaxDim)
	}
	return net, nil
}

// statusClientClosedRequest is the (nginx-conventional) status recorded
// when a client disconnects before its answer is built: the write never
// reaches anyone, but the counter and access pattern should say "client
// gave up", not "we failed".
const statusClientClosedRequest = 499

// writeCacheError maps a plancache error to a status: an overloaded
// shed is 503 with Retry-After (come back when a build slot frees), a
// request whose own context ended is 499, build failures are
// server-side (500), everything else is request validation (400).
func (s *Server) writeCacheError(w http.ResponseWriter, r *http.Request, err error) int {
	switch {
	case errors.Is(err, plancache.ErrOverloaded):
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		return writeError(w, http.StatusServiceUnavailable, err.Error())
	case r.Context().Err() != nil && errors.Is(err, r.Context().Err()):
		s.earlyAborts.Add(1)
		return writeError(w, statusClientClosedRequest, "client closed request: "+err.Error())
	}
	var be *plancache.BuildError
	if errors.As(err, &be) {
		return writeError(w, http.StatusInternalServerError, err.Error())
	}
	return writeError(w, http.StatusBadRequest, err.Error())
}

// planQuery parses machine/topology/d/m from the URL query; on failure
// it writes the error response and returns its code (0 on success).
func (s *Server) planQuery(w http.ResponseWriter, r *http.Request) (machine string, topo topology.Network, m, errCode int) {
	q := r.URL.Query()
	machine = q.Get("machine")
	if machine == "" {
		machine = s.cfg.DefaultMachine
	}
	topo, err := s.resolveTopo(q.Get("topology"), q.Get("d"))
	if err != nil {
		return "", nil, 0, writeError(w, http.StatusBadRequest, err.Error())
	}
	m, err = queryInt(q.Get("m"), "m")
	if err != nil {
		return "", nil, 0, writeError(w, http.StatusBadRequest, err.Error())
	}
	return machine, topo, m, 0
}

func queryInt(raw, name string) (int, error) {
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %q is not an integer", name, raw)
	}
	return v, nil
}

// CostRequest is the /v1/cost wire format. Topology names a registry
// spec ("torus-4x4x4"); when empty, D selects the hypercube.
type CostRequest struct {
	Machine   string `json:"machine"`
	Topology  string `json:"topology"`
	D         int    `json:"d"`
	M         int    `json:"m"`
	Partition []int  `json:"partition"`
}

// CostResponse reports both cost views of one explicit partition: the
// closed-form prediction and the compiled-trace discrete-event replay.
type CostResponse struct {
	Machine         string      `json:"machine"`
	Topology        string      `json:"topology"`
	D               int         `json:"d"`
	M               int         `json:"m"`
	Partition       []int       `json:"partition"`
	PredictedUS     float64     `json:"predicted_us"`
	SimulatedUS     float64     `json:"simulated_us"`
	ContentionStall float64     `json:"contention_stall_us"`
	Phases          []phaseJSON `json:"phases"`
	// Health is the fabric's fault digest at answer time ("ok" when
	// healthy); both cost views account for the faults.
	Health string `json:"health"`
}

func (s *Server) handleCost(w http.ResponseWriter, r *http.Request) int {
	var req CostRequest
	if code := decodeBody(w, r, &req); code != 0 {
		return code
	}
	if req.Machine == "" {
		req.Machine = s.cfg.DefaultMachine
	}
	machine, prm, err := s.cache.Resolve(req.Machine)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	req.Machine = machine
	var topo topology.Network
	if req.Topology != "" {
		topo, err = plancache.ResolveTopology(req.Topology)
	} else {
		if req.D < 0 || req.D > s.cfg.CostMaxDim {
			return writeError(w, http.StatusBadRequest,
				fmt.Sprintf("d=%d out of this server's simulation bound [0,%d]", req.D, s.cfg.CostMaxDim))
		}
		topo, err = topology.New(req.D)
	}
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	if topo.Nodes() > 1<<s.cfg.CostMaxDim {
		return writeError(w, http.StatusBadRequest,
			fmt.Sprintf("topology %s has %d nodes, over this server's simulation bound of %d",
				topo.Name(), topo.Nodes(), 1<<s.cfg.CostMaxDim))
	}
	net, health, err := s.applyFaults(topo)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, err.Error())
	}
	D := partition.Partition(req.Partition)
	plan, err := exchange.NewPlanOn(net, req.M, D)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	costNet := simnet.New(net, prm)
	costNet.SetReplayShards(s.cfg.ReplayWorkers)
	res, err := plan.Cost(costNet)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, err.Error())
	}
	pred, phases, err := prm.MultiphaseOn(net, req.M, D)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	return writeJSON(w, http.StatusOK, CostResponse{
		Machine:         req.Machine,
		Topology:        net.Name(),
		D:               net.NumDims(),
		M:               req.M,
		Partition:       append([]int{}, D...),
		PredictedUS:     pred,
		SimulatedUS:     res.Makespan,
		ContentionStall: res.ContentionStall,
		Phases:          phasesJSON(phases),
		Health:          health,
	})
}

// HullResponse is the /v1/hull wire format.
type HullResponse struct {
	Machine  string        `json:"machine"`
	Topology string        `json:"topology"`
	D        int           `json:"d"`
	Segments []segmentJSON `json:"segments"`
	// Health is the fabric's fault digest at answer time ("ok" when
	// healthy); the hull was enumerated on the degraded fabric when set.
	Health string `json:"health"`
}

func (s *Server) handleHull(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	machine := q.Get("machine")
	if machine == "" {
		machine = s.cfg.DefaultMachine
	}
	name, _, err := s.cache.Resolve(machine)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	topo, err := s.resolveTopo(q.Get("topology"), q.Get("d"))
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	net, health, err := s.applyFaults(topo)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, err.Error())
	}
	tbl, err := s.cache.HullFor(r.Context(), name, net)
	if err != nil {
		return s.writeCacheError(w, r, err)
	}
	resp := HullResponse{Machine: name, Topology: tbl.Topo, D: tbl.D, Health: health}
	for _, seg := range tbl.Segments {
		resp.Segments = append(resp.Segments, segmentJSON{
			Partition: append([]int{}, seg.Part...),
			MinBlock:  seg.MinBlock,
			MaxBlock:  seg.MaxBlock,
		})
	}
	return writeJSON(w, http.StatusOK, resp)
}

// BatchRequest is the /v1/batch wire format: a slice of plan queries.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchQuery is one (machine, topology, m) plan query; an empty
// Topology selects the D-cube.
type BatchQuery struct {
	Machine  string `json:"machine"`
	Topology string `json:"topology"`
	D        int    `json:"d"`
	M        int    `json:"m"`
}

// BatchItem is one batch result: a plan or a per-query error, never
// both. A bad query does not fail its siblings.
type BatchItem struct {
	Plan  *PlanResponse `json:"plan,omitempty"`
	Error string        `json:"error,omitempty"`
}

// BatchResponse carries the results in query order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// handleBatch fans the queries across a bounded worker pool; results
// come back in request order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var req BatchRequest
	if code := decodeBody(w, r, &req); code != 0 {
		return code
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		return writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d queries exceeds the limit of %d", len(req.Queries), s.cfg.MaxBatch))
	}
	results := make([]BatchItem, len(req.Queries))
	workers := s.cfg.BatchWorkers
	if workers > len(req.Queries) {
		workers = len(req.Queries)
	}
	ctx := r.Context()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(results) {
					return
				}
				// A disconnected client stops the fan-out: remaining
				// queries are marked cancelled, not computed.
				if err := ctx.Err(); err != nil {
					results[i] = BatchItem{Error: "request cancelled: " + err.Error()}
					continue
				}
				qy := req.Queries[i]
				machine := qy.Machine
				if machine == "" {
					machine = s.cfg.DefaultMachine
				}
				topo, err := s.resolveTopo(qy.Topology, strconv.Itoa(qy.D))
				if err != nil {
					results[i] = BatchItem{Error: err.Error()}
					continue
				}
				p, health, degraded, err := s.planFor(ctx, machine, topo, qy.M)
				if err != nil {
					if errors.Is(err, plancache.ErrOverloaded) {
						s.shed.Add(1)
					}
					results[i] = BatchItem{Error: err.Error()}
					continue
				}
				resp := planResponse(p)
				resp.Health = health
				resp.Degraded = degraded
				results[i] = BatchItem{Plan: &resp}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		s.earlyAborts.Add(1)
		return writeError(w, statusClientClosedRequest, "client closed request: "+err.Error())
	}
	return writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// HealthResponse is the /healthz wire format.
type HealthResponse struct {
	Status   string   `json:"status"`
	UptimeS  float64  `json:"uptime_s"`
	Machines []string `json:"machines"`
	// DegradedFabrics lists topologies currently carrying fault state.
	DegradedFabrics []string `json:"degraded_fabrics,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	machines := s.cache.Machines()
	names := make([]string, 0, len(machines))
	for name := range machines {
		names = append(names, name)
	}
	sort.Strings(names)
	return writeJSON(w, http.StatusOK, HealthResponse{
		Status:          "ok",
		UptimeS:         time.Since(s.start).Seconds(),
		Machines:        names,
		DegradedFabrics: s.FaultTopologies(),
	})
}

// EndpointMetrics is one route's latency accounting. The quantiles are
// derived from a fixed log-bucket histogram, so they are estimates
// bounded by their bucket (and exact at the observed max).
type EndpointMetrics struct {
	Count    int64   `json:"count"`
	Errors   int64   `json:"errors"`
	TotalUS  int64   `json:"total_us"`
	MeanUS   float64 `json:"mean_us"`
	MaxUS    int64   `json:"max_us"`
	P50US    float64 `json:"p50_us"`
	P90US    float64 `json:"p90_us"`
	P99US    float64 `json:"p99_us"`
	Inflight int64   `json:"inflight"`
}

// MetricsResponse is the /metrics wire format: the cache counters and
// the aggregated optimizer enumeration counters (candidates evaluated,
// branch-and-bound pruned, memo hits/misses across every per-machine
// optimizer) next to per-endpoint request/latency counters.
type MetricsResponse struct {
	Cache     plancache.Stats `json:"cache"`
	Optimizer optimize.Stats  `json:"optimizer"`
	Faults    FaultMetrics    `json:"faults"`
	Panics    int64           `json:"panics_total"`
	// Shed counts requests refused with 503 because the local build
	// concurrency bound was exhausted; EarlyAborts counts requests whose
	// client disconnected before the answer was built (499).
	Shed        int64 `json:"shed_total"`
	EarlyAborts int64 `json:"early_aborts_total"`
	// Cluster carries peer-layer counters and per-peer up/breaker state;
	// absent on a standalone daemon so the standalone wire format is
	// unchanged.
	Cluster   *cluster.Metrics           `json:"cluster,omitempty"`
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
	// Stages carries per-stage latency histograms (build, optimizer,
	// replay, peer_fetch, cache, …) aggregated from trace spans; absent
	// until the first traced request exercises a stage.
	Stages map[string]obs.HistSnapshot `json:"stages,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	if r.URL.Query().Get("format") == "prometheus" {
		return s.writePrometheus(w)
	}
	resp := MetricsResponse{
		Cache:       s.cache.Stats(),
		Optimizer:   s.cache.OptimizerStats(),
		Faults:      s.faultMetrics(),
		Panics:      s.panics.Load(),
		Shed:        s.shed.Load(),
		EarlyAborts: s.earlyAborts.Load(),
		Endpoints:   make(map[string]EndpointMetrics),
	}
	if s.cfg.Cluster != nil {
		m := s.cfg.Cluster.Metrics()
		resp.Cluster = &m
	}
	s.mu.Lock()
	for name, st := range s.stats {
		resp.Endpoints[name] = st.metrics()
	}
	s.mu.Unlock()
	if stages := s.cfg.Tracer.StageStats(); len(stages) > 0 {
		resp.Stages = make(map[string]obs.HistSnapshot, len(stages))
		for name, snap := range stages {
			snap.Buckets = nil // quantiles only; buckets live on the Prometheus form
			resp.Stages[name] = snap
		}
	}
	return writeJSON(w, http.StatusOK, resp)
}

// metrics renders one endpoint's counters for the JSON /metrics form.
func (st *endpointStats) metrics() EndpointMetrics {
	snap := st.hist.Snapshot()
	m := EndpointMetrics{
		Count:    st.count.Load(),
		Errors:   st.errors.Load(),
		TotalUS:  st.totalUS.Load(),
		MaxUS:    st.maxUS.Load(),
		P50US:    snap.P50US,
		P90US:    snap.P90US,
		P99US:    snap.P99US,
		Inflight: st.inflight.Load(),
	}
	if m.Count > 0 {
		m.MeanUS = float64(m.TotalUS) / float64(m.Count)
	}
	return m
}

// TracesResponse is the /debug/traces wire format.
type TracesResponse struct {
	// Committed counts traces committed since boot; the ring retains only
	// the most recent ones.
	Committed int64           `json:"committed_total"`
	Traces    []obs.TraceData `json:"traces"`
}

// handleTraces serves recent request traces: ?id= filters by request ID,
// ?limit= bounds the count, and ?format=chrome renders the Chrome
// trace_event JSON that chrome://tracing and Perfetto open directly.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query()
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		v, err := queryInt(raw, "limit")
		if err != nil {
			return writeError(w, http.StatusBadRequest, err.Error())
		}
		limit = v
	}
	var traces []obs.TraceData
	if id := q.Get("id"); id != "" {
		traces = s.cfg.Tracer.Find(id)
	} else {
		traces = s.cfg.Tracer.Snapshot(limit)
	}
	if q.Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = obs.WriteChromeTrace(w, obs.ChromeEvents(traces))
		return http.StatusOK
	}
	if traces == nil {
		traces = []obs.TraceData{}
	}
	return writeJSON(w, http.StatusOK, TracesResponse{
		Committed: s.cfg.Tracer.Committed(),
		Traces:    traces,
	})
}

// maxBodyBytes bounds a POST body: the size cap is enforced while
// reading, before any per-query work, so an oversized /v1/batch cannot
// allocate its way past MaxBatch.
const maxBodyBytes = 1 << 20

// decodeBody JSON-decodes a size-limited request body; on failure it
// writes the error response and returns its status code (0 on success).
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) int {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		}
		return writeError(w, http.StatusBadRequest, "decoding request body: "+err.Error())
	}
	return 0
}

// --- response plumbing ---

func writeJSON(w http.ResponseWriter, code int, v interface{}) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return code
}

func writeError(w http.ResponseWriter, code int, msg string) int {
	return writeJSON(w, code, errorResponse{Error: msg})
}
