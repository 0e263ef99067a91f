// Package server is the tecosimd sweep service: an HTTP/JSON front end
// that runs any registered experiment generator (internal/experiments)
// behind a bounded admission queue, coalesces identical in-flight requests
// by their canonical config fingerprint, and persists every result in a
// content-addressed, CRC-framed on-disk cache (internal/diskcache).
//
// Robustness is enforced, not hoped for:
//
//   - Per-request deadlines thread context cancellation through the sweep
//     pool (experiments.Options.Ctx → parallel.RunCtx): when the last
//     waiter for a computation gives up, the computation stops.
//   - Overload sheds instead of collapsing: when the compute slots and the
//     bounded queue are both full, requests get an immediate 503 with
//     Retry-After.
//   - Cache corruption — torn writes, bit flips, truncated tails — is
//     detected by CRC on read; the entry is dropped and transparently
//     recomputed. A crash at any byte of a cache write leaves either the
//     old entry or no entry (temp-file + fsync + rename + dir fsync).
//   - Graceful drain: Drain stops admitting, lets every in-flight request
//     finish, then flushes the cache directory. Kill models kill -9 for
//     the chaos harness (internal/server/chaos_test.go), which proves the
//     whole stack serves only bit-exact, golden-equal results across
//     repeated kill/restart cycles under injected disk faults.
//
// Determinism makes all of this cheap: every result is cacheable forever
// (PR 5's conformance harness pins them to seed-42 goldens), so throughput
// is a cache-and-resilience problem, not a compute problem.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"teco/internal/checkpoint"
	"teco/internal/core"
	"teco/internal/diskcache"
	"teco/internal/experiments"
	"teco/internal/parallel"
)

// payloadSchema versions the cached payload encoding (the JSON table
// serialization). It is mixed into every cache key so a schema change can
// never reinterpret old bytes — old entries simply miss and recompute.
const payloadSchema = 1

// Config parameterizes New. The zero value of every field selects a
// sensible default.
type Config struct {
	// CacheDir is the on-disk result cache directory (required).
	CacheDir string
	// Slots is the number of concurrently executing computations
	// (<= 0: 2). Each computation may itself fan out on Workers.
	Slots int
	// QueueDepth bounds how many cold requests may wait for a slot before
	// the server sheds load (< 0: 0, <=0 sheds as soon as slots fill;
	// 0 selects the default 64).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the client does not
	// send one (0: 2m). MaxTimeout caps client-requested deadlines (0: 10m).
	DefaultTimeout, MaxTimeout time.Duration
	// Workers sizes each computation's sweep pool (0: GOMAXPROCS).
	Workers int
	// CacheMaxBytes bounds the on-disk cache; least-recently-used results
	// are evicted (and recomputed on demand) past it. 0 is unbounded.
	CacheMaxBytes int64
	// CacheFaults optionally injects cache-layer faults (chaos harness).
	CacheFaults *checkpoint.Faults
	// Run overrides the experiment runner (tests). Nil runs
	// experiments.ByID.
	Run func(ctx context.Context, id string, opt experiments.Options) ([]*experiments.Table, error)
}

// Stats is the server's cumulative counter snapshot, plus the cache's.
type Stats struct {
	Requests  int64 `json:"requests"`
	Hits      int64 `json:"hits"`      // served straight from the warm cache
	Computes  int64 `json:"computes"`  // cold computations executed
	Coalesced int64 `json:"coalesced"` // requests that shared an in-flight computation
	Shed      int64 `json:"shed"`      // rejected 503: queue saturated
	Timeouts  int64 `json:"timeouts"`  // requests that hit their deadline
	Rejected  int64 `json:"rejected"`  // rejected 503: draining or killed
	PutErrors int64 `json:"put_errors"`

	InFlight int `json:"in_flight"` // distinct computations running now
	Queued   int `json:"queued"`    // cold requests waiting for a slot

	Cache diskcache.Stats `json:"cache"`

	// Fabric, Layers and Tiering are the process-wide plane totals
	// (core.Planes): port flaps and failovers from core.StepFabric,
	// fast-tier hits, misses, prefetch overlap and eviction churn from
	// core.StepLayered, and fast/far accesses, plan rounds and migrations
	// from core.RunTiered.
	Fabric  core.FabricCounters `json:"fabric"`
	Layers  core.LayerCounters  `json:"layers"`
	Tiering core.TierCounters   `json:"tiering"`
}

// Server is one sweep-service instance. Create with New, expose via
// Handler, stop with Drain (graceful) or Kill (abrupt).
type Server struct {
	cfg     Config
	cache   *diskcache.Cache
	gate    *parallel.Gate
	flights *flightGroup
	run     func(ctx context.Context, id string, opt experiments.Options) ([]*experiments.Table, error)

	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
	reqWG      sync.WaitGroup

	mux *http.ServeMux

	requests, hits, computes, coalesced atomic.Int64
	shed, timeouts, rejected, putErrors atomic.Int64
}

// New builds a server over a (possibly already warm) cache directory.
func New(cfg Config) (*Server, error) {
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	cache, err := diskcache.Open(diskcache.Config{
		Dir:      cfg.CacheDir,
		MaxBytes: cfg.CacheMaxBytes,
		Faults:   cfg.CacheFaults,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		gate:    parallel.NewGate(cfg.Slots, cfg.QueueDepth),
		flights: newFlightGroup(),
		run:     cfg.Run,
	}
	if s.run == nil {
		s.run = func(_ context.Context, id string, opt experiments.Options) ([]*experiments.Table, error) {
			return experiments.ByID(id, opt)
		}
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/experiments", s.handleExperiments)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots every counter.
func (s *Server) Stats() Stats {
	planes := core.Planes()
	return Stats{
		Requests:  s.requests.Load(),
		Hits:      s.hits.Load(),
		Computes:  s.computes.Load(),
		Coalesced: s.coalesced.Load(),
		Shed:      s.shed.Load(),
		Timeouts:  s.timeouts.Load(),
		Rejected:  s.rejected.Load(),
		PutErrors: s.putErrors.Load(),
		InFlight:  s.flights.inFlight(),
		Queued:    s.gate.Queued(),
		Cache:     s.cache.Stats(),
		Fabric:    planes.Fabric,
		Layers:    planes.Layers,
		Tiering:   planes.Tiering,
	}
}

// Drain is the graceful-shutdown half of SIGTERM handling: stop admitting
// new requests (503), wait for every in-flight request to finish — each is
// bounded by its own deadline, so the wait terminates — then cancel the
// compute context and flush the cache directory. It returns ctx.Err() if
// the drain deadline expires first (remaining work is then abandoned).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.baseCancel()
	if cerr := s.cache.Close(); err == nil {
		err = cerr
	}
	return err
}

// Kill is kill -9 for the in-process chaos harness: stop admitting, cancel
// every computation immediately, flush nothing. The cache directory is left
// exactly as the "crash" found it; a later New on the same directory plays
// the reboot.
func (s *Server) Kill() {
	s.draining.Store(true)
	s.baseCancel()
}

// cacheKey derives the content address for a request: the canonical config
// fingerprint (experiments.Options.Fingerprint) mixed with the payload
// schema version.
func cacheKey(id string, opt experiments.Options) uint64 {
	// SplitMix-style finalizer over (fingerprint, schema) — cheap, and any
	// schema bump moves every key.
	z := opt.Fingerprint(id) + uint64(payloadSchema)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Response is the /run response envelope.
type Response struct {
	// Key is the content address the result lives under (hex).
	Key string `json:"key"`
	// Cached is true when the bytes came straight from the warm cache;
	// Coalesced is true when this request shared another's computation.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Tables is the experiment result, identical bytes for identical keys.
	Tables json.RawMessage `json:"tables"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(experiments.IDs())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

// maxBodyBytes bounds a POST /run body: over 50 times the largest legal
// one (every request name at its longest value, 428 bytes).
const maxBodyBytes = 64 << 10

// parseRequest decodes a /run call — a JSON object (POST) or query
// parameters (GET) — into the experiment id, the client's timeout_ms and the
// option set. Those two names are request-level; every other one goes
// through experiments.Options.Set, so unknown names, scheduling knobs and
// unparsable values are errors rather than silently dropped. Names are
// visited in sorted order, so of several bad names the same one is
// reported every time.
func parseRequest(r *http.Request) (id string, timeoutMs int64, opt experiments.Options, err error) {
	set := func(name, value string) {
		switch {
		case err != nil:
		case name == "id":
			id = value
		case name == "timeout_ms":
			if value != "" {
				timeoutMs, err = strconv.ParseInt(value, 10, 64)
			}
		default:
			err = opt.Set(name, value)
		}
	}
	if r.Method == http.MethodPost {
		var body map[string]any
		dec := json.NewDecoder(r.Body)
		dec.UseNumber()
		if err := dec.Decode(&body); err != nil {
			return "", 0, opt, fmt.Errorf("bad JSON body: %v", err)
		}
		for _, name := range sortedNames(body) {
			switch v := body[name].(type) {
			case string:
				set(name, v)
			case json.Number:
				set(name, v.String())
			case bool:
				set(name, strconv.FormatBool(v))
			default:
				return "", 0, opt, fmt.Errorf("bad JSON value for %q", name)
			}
		}
	} else {
		query := r.URL.Query()
		for _, name := range sortedNames(query) {
			set(name, query[name][0])
		}
	}
	if err != nil {
		err = fmt.Errorf("bad request parameter: %v", err)
	}
	return id, timeoutMs, opt, err
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// encodeTables is the canonical payload serialization: compact JSON of the
// table list. encoding/json emits struct fields in declaration order and
// every cell is already a pinned string (strconv-formatted), so identical
// tables encode to identical bytes on every platform — the property that
// makes the cache content-addressable.
func encodeTables(tables []*experiments.Table) ([]byte, error) {
	return json.Marshal(tables)
}

// DecodeTables decodes a cached payload (clients, chaos harness).
func DecodeTables(payload []byte) ([]*experiments.Table, error) {
	var tables []*experiments.Table
	if err := json.Unmarshal(payload, &tables); err != nil {
		return nil, err
	}
	return tables, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.reqWG.Add(1)
	defer s.reqWG.Done()
	if s.draining.Load() {
		s.rejected.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// Everything a client can get wrong is a 400 here, before the cache
	// lookup, the coalescer and the admission gate ever see the request.
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	id, timeoutMs, opt, err := parseRequest(r)
	if err == nil {
		err = opt.Validate()
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	canonical, ok := experiments.Canonical(id) // aliases share one entry
	if !ok {
		s.writeError(w, http.StatusBadRequest, "unknown experiment id %q (GET /experiments lists them)", id)
		return
	}
	s.requests.Add(1)
	opt.Workers = s.cfg.Workers // scheduling is the server's own, never the key's
	key := cacheKey(canonical, opt)
	keyHex := fmt.Sprintf("%016x", key)

	// Warm path: serve straight from the CRC-verified cache.
	if payload, ok, err := s.cache.Get(key); err != nil {
		s.writeError(w, http.StatusInternalServerError, "cache: %v", err)
		return
	} else if ok {
		s.hits.Add(1)
		s.respond(w, Response{Key: keyHex, Cached: true, Tables: payload})
		return
	}

	// Cold path: coalesce with identical in-flight requests, then compute
	// behind the bounded admission gate.
	timeout := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	payload, shared, err := s.flights.do(ctx, s.baseCtx, key, func(runCtx context.Context) ([]byte, error) {
		if err := s.gate.Enter(runCtx); err != nil {
			return nil, err
		}
		defer s.gate.Leave()
		// A racing flight may have committed this key while we queued.
		if p, ok, _ := s.cache.Get(key); ok {
			return p, nil
		}
		s.computes.Add(1)
		o := opt
		o.Ctx = runCtx
		tables, err := s.run(runCtx, canonical, o)
		if err != nil {
			return nil, err
		}
		if err := runCtx.Err(); err != nil {
			// Cancelled mid-sweep: the tables carry zero cells for every
			// unreached grid point. They must never be served or cached.
			return nil, err
		}
		p, err := encodeTables(tables)
		if err != nil {
			return nil, err
		}
		if perr := s.cache.Put(key, p); perr != nil {
			// A failed persist must not fail the request: the result is
			// correct, it just won't be warm next time.
			s.putErrors.Add(1)
		}
		return p, nil
	})
	if shared {
		s.coalesced.Add(1)
	}
	switch {
	case err == nil:
		s.respond(w, Response{Key: keyHex, Cached: false, Coalesced: shared, Tables: payload})
	case errors.Is(err, parallel.ErrSaturated):
		s.shed.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "overloaded: admission queue full")
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded after %v", timeout)
	case errors.Is(err, context.Canceled):
		s.rejected.Add(1)
		s.writeError(w, http.StatusServiceUnavailable, "server stopping")
	default:
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) respond(w http.ResponseWriter, resp Response) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
