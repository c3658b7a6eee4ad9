package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/service"
)

// clients is the load's goroutine and connection count: at most the
// machine's cores, and at most 2.
func clients() int { return min(runtime.NumCPU(), 2) }

// server is the service handler behind a real loopback listener, driven
// by an HTTP client limited to clients() connections.
type server struct {
	cache   *plancache.Cache
	scfg    service.Config
	handler atomic.Pointer[http.Handler]
	http    *http.Server
	base    string
	client  *http.Client
	served  chan error
}

func startServer(cache *plancache.Cache, scfg service.Config) (*server, error) {
	scfg.Logger = slog.New(slog.DiscardHandler)
	if scfg.Tracer == nil {
		scfg.Tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	s := &server{scfg: scfg, served: make(chan error, 1)}
	if err := s.swap(cache); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*s.handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: clients(),
			MaxConnsPerHost:     clients(),
			DisableCompression:  true,
		},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	// Set-up ends when the daemon answers its first request.
	var h service.HealthResponse
	if err := s.do(http.MethodGet, "/healthz", nil, "", &h); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// swap puts a new service over cache behind the listener, sharing the
// tracer, so the stage histograms on /metrics span every cache served.
// The caller must not swap while requests are in flight.
func (s *server) swap(cache *plancache.Cache) error {
	cfg := s.scfg
	cfg.Cache = cache
	svc, err := service.New(cfg)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	h := svc.Handler()
	s.handler.Store(&h)
	s.cache = cache
	return nil
}

// close shuts the listener down and waits for Serve to return.
func (s *server) close() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a timed-out drain still returns Serve below
	<-s.served
	s.client.CloseIdleConnections()
}

// do sends one request and decodes a 200 answer into out. Any other
// status, including a 503 shed, is an error.
func (s *server) do(method, path string, body []byte, reqID string, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	if reqID != "" {
		req.Header.Set(obs.RequestIDHeader, reqID)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding: %w", method, path, err)
	}
	return nil
}

func (s *server) metrics() (service.MetricsResponse, error) {
	var m service.MetricsResponse
	err := s.do(http.MethodGet, "/metrics", nil, "", &m)
	return m, err
}

// traces fetches the most recent server-side request traces.
func (s *server) traces(limit int) (service.TracesResponse, error) {
	var t service.TracesResponse
	err := s.do(http.MethodGet, fmt.Sprintf("/debug/traces?limit=%d", limit), nil, "", &t)
	return t, err
}

// errLog keeps the first few op errors for the report.
type errLog struct {
	mu   sync.Mutex
	msgs []string
}

func (e *errLog) add(err error) error {
	if err == nil {
		return nil
	}
	e.mu.Lock()
	if len(e.msgs) < 5 {
		e.msgs = append(e.msgs, err.Error())
	}
	e.mu.Unlock()
	return err
}

func (e *errLog) list() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.msgs...)
}

// serverTimes groups pland's retained request traces by name: each
// request's duration under its endpoint, and every stage span's duration
// under the stage's name ("build", "optimizer", "replay", …). Values are
// exact µs, where the /metrics histograms are bucketed estimates.
func serverTimes(tr *obs.Tracer) map[string][]float64 {
	out := map[string][]float64{}
	for _, t := range tr.Snapshot(0) {
		out[t.Name] = append(out[t.Name], t.DurationUS)
		for _, sp := range t.Spans {
			if sp.Name != t.Name {
				out[sp.Name] = append(out[sp.Name], sp.DurUS)
			}
		}
	}
	return out
}

// saveServerView stores pland's own view of a traced window — stage
// histograms, endpoint latencies, cache and optimizer counters, and the
// most recent request traces — beside the benchmark's spans.
func saveServerView(spans *spanLog, s *server, m service.MetricsResponse) {
	spans.extra["pland_metrics"] = m
	if t, err := s.traces(obs.DefaultTraceCapacity); err == nil {
		spans.extra["pland_traces"] = t.Traces
	} else {
		spans.extra["pland_traces_error"] = err.Error()
	}
}
