package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teco/internal/conformance"
	"teco/internal/experiments"
)

// newTestServer builds a server over a fresh temp cache dir. Tweak the
// config (slots, stub runner) via mutate before construction.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{CacheDir: t.TempDir(), DefaultTimeout: 30 * time.Second}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// getRun issues GET /run?... against a handler and decodes the envelope.
func getRun(t *testing.T, h http.Handler, query string) (Response, int) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/run?"+query, nil))
	var resp Response
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad envelope: %v\n%s", err, w.Body.Bytes())
		}
	}
	return resp, w.Code
}

// TestRunMatchesConformanceGoldens: a served result must DeepEqual the
// tables the conformance harness generates for the same id at the golden
// seed — the daemon adds transport and caching, never new numbers.
func TestRunMatchesConformanceGoldens(t *testing.T) {
	s := newTestServer(t, nil)
	for _, id := range []string{"table1", "fig12", "volume"} {
		resp, code := getRun(t, s.Handler(), fmt.Sprintf("id=%s&seed=%d", id, conformance.GoldenSeed))
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", id, code)
		}
		got, err := DecodeTables(resp.Tables)
		if err != nil {
			t.Fatalf("%s: decode: %v", id, err)
		}
		want, err := conformance.Generate(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: served tables differ from conformance reference", id)
		}
	}
}

// TestWarmCacheServesIdenticalBytes: the second request for a key is a
// cache hit with byte-identical tables and no second computation.
func TestWarmCacheServesIdenticalBytes(t *testing.T) {
	s := newTestServer(t, nil)
	cold, code := getRun(t, s.Handler(), "id=table1&seed=42")
	if code != http.StatusOK || cold.Cached {
		t.Fatalf("cold request: HTTP %d cached=%v", code, cold.Cached)
	}
	warm, code := getRun(t, s.Handler(), "id=table1&seed=42")
	if code != http.StatusOK || !warm.Cached {
		t.Fatalf("warm request: HTTP %d cached=%v", code, warm.Cached)
	}
	if !bytes.Equal(cold.Tables, warm.Tables) {
		t.Fatal("warm bytes differ from cold bytes for the same key")
	}
	if warm.Key != cold.Key {
		t.Fatalf("key changed between requests: %s vs %s", cold.Key, warm.Key)
	}
	if st := s.Stats(); st.Computes != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want exactly 1 compute and 1 hit", st)
	}
}

// TestDistinctConfigsGetDistinctKeys: result-shaping parameters move the
// cache key; scheduling parameters do not (they are the server's own).
func TestDistinctConfigsGetDistinctKeys(t *testing.T) {
	s := newTestServer(t, nil)
	a, _ := getRun(t, s.Handler(), "id=fig12&seed=1")
	b, _ := getRun(t, s.Handler(), "id=fig12&seed=2")
	if a.Key == b.Key {
		t.Fatal("different seeds mapped to the same cache key")
	}
}

// stubRunner returns a Run override that blocks until release is closed,
// counts invocations, and respects cancellation.
func stubRunner(started *atomic.Int64, release chan struct{}) func(context.Context, string, experiments.Options) ([]*experiments.Table, error) {
	return func(ctx context.Context, id string, opt experiments.Options) ([]*experiments.Table, error) {
		started.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return []*experiments.Table{{ID: id, Title: "stub", Header: []string{"x"}}}, nil
	}
}

// TestCoalescingSharesOneComputation: concurrent identical requests run the
// generator once; the late arrivals report coalesced.
func TestCoalescingSharesOneComputation(t *testing.T) {
	var started atomic.Int64
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) { c.Run = stubRunner(&started, release) })

	const clients = 8
	codes := make([]int, clients)
	var coalesced atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, code := getRun(t, s.Handler(), "id=table1&seed=7")
			codes[i] = code
			if resp.Coalesced {
				coalesced.Add(1)
			}
		}(i)
	}
	// Wait until the one computation is in flight, then release it.
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the rest of the clients pile on
	close(release)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("client %d: HTTP %d", i, code)
		}
	}
	if got := started.Load(); got != 1 {
		t.Fatalf("generator ran %d times for %d identical requests, want 1", got, clients)
	}
	if coalesced.Load() == 0 {
		t.Fatal("no client reported coalesced despite sharing a computation")
	}
}

// TestOverloadShedsWith503: with one slot and a zero-depth queue, a second
// distinct cold request is shed immediately with 503 + Retry-After rather
// than queued behind the running computation.
func TestOverloadShedsWith503(t *testing.T) {
	var started atomic.Int64
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.Slots = 1
		c.QueueDepth = -1 // shed as soon as the slot is taken
		c.Run = stubRunner(&started, release)
	})

	errc := make(chan int, 1)
	go func() {
		_, code := getRun(t, s.Handler(), "id=table1&seed=1")
		errc <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/run?id=table1&seed=2", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded request: HTTP %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	close(release)
	if code := <-errc; code != http.StatusOK {
		t.Fatalf("in-flight request: HTTP %d", code)
	}
	if s.Stats().Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", s.Stats().Shed)
	}
}

// TestDeadlineCancelsAbandonedComputation: when the only waiter times out,
// the request gets 504 and the computation's context is cancelled so the
// sweep pool stops burning the slot.
func TestDeadlineCancelsAbandonedComputation(t *testing.T) {
	cancelled := make(chan struct{})
	s := newTestServer(t, func(c *Config) {
		c.Run = func(ctx context.Context, id string, opt experiments.Options) ([]*experiments.Table, error) {
			<-ctx.Done()
			close(cancelled)
			return nil, ctx.Err()
		}
	})
	_, code := getRun(t, s.Handler(), "id=table1&seed=3&timeout_ms=50")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out request: HTTP %d, want 504", code)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned computation was never cancelled")
	}
	if s.Stats().Timeouts != 1 {
		t.Fatalf("timeout counter = %d, want 1", s.Stats().Timeouts)
	}
}

// TestCancelledGenerationIsNeverCached: a generation that ran to its
// (cancelled) end must not leave a poisoned cache entry — the next request
// for the key must recompute and get the real result.
func TestCancelledGenerationIsNeverCached(t *testing.T) {
	s := newTestServer(t, nil)
	if _, code := getRun(t, s.Handler(), "id=fig12&seed=42&timeout_ms=1"); code != http.StatusGatewayTimeout {
		// On a fast machine 1ms may still be enough to finish; only the
		// timeout path exercises the assertion, so require it.
		t.Skipf("generation finished inside 1ms; cannot exercise the cancellation path (HTTP %d)", code)
	}
	// The cancelled flight may briefly linger (a retry coalescing onto it
	// inherits its context.Canceled), and when cancellation loses the race
	// with a completed Put the cache legitimately holds the full result —
	// the guarantee is that nothing PARTIAL is ever served or cached. So:
	// retry past the lingering flight, then require the real tables.
	resp, code := getRun(t, s.Handler(), "id=fig12&seed=42")
	for deadline := time.Now().Add(10 * time.Second); code != http.StatusOK && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		resp, code = getRun(t, s.Handler(), "id=fig12&seed=42")
	}
	if code != http.StatusOK {
		t.Fatalf("recompute after cancellation: HTTP %d", code)
	}
	got, err := DecodeTables(resp.Tables)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := conformance.Generate("fig12")
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-cancellation recompute differs from conformance reference")
	}
}

// TestBadRequests: unknown ids, unknown or scheduling-only parameter names,
// and unparsable or out-of-range values are 400s before the cache, the
// coalescer and the admission gate — never computations, never 500s.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, nil)
	bad := func(method, target, body string) {
		t.Helper()
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s %s %s: HTTP %d, want 400", method, target, body, w.Code)
		}
	}
	for _, query := range []string{"id=nope", "id=table1&seed=abc", "",
		"id=layers&cache_pct=101", "id=tiering&tier_dram_pct=-5", "id=fabric&replicas=-1",
		"id=faults&ber=2", "id=table1&sede=7", "id=table1&workers=9", "id=table1&coalesce=false",
		"id=fabric-faults&kill_port=5", "id=layers-policy&layer_policy=mru", "id=table1&timeout_ms=soon",
		"id=layers-policy&layer_policy=pinned", "id=tiering-policy&tier_policy=recency"} {
		bad(http.MethodGet, "/run?"+query, "")
	}
	for _, body := range []string{`{"id":"table1","sede":7}`, `{"id":"table1","workers":9}`,
		`{"id":"table1","seed":[1]}`, `{"id":"layers","cache_pct":101}`, `{"id":`} {
		bad(http.MethodPost, "/run", body)
	}
	if st := s.Stats(); st.Computes != 0 || st.Requests != 0 || st.InFlight != 0 {
		t.Fatalf("bad requests reached admission: %+v", st)
	}
}

// TestAliasSharesCacheEntry: the daemon accepts the aliases the CLI accepts
// and serves them from the canonical id's entry.
func TestAliasSharesCacheEntry(t *testing.T) {
	s := newTestServer(t, nil)
	canon, code := getRun(t, s.Handler(), "id=fig11")
	if code != http.StatusOK {
		t.Fatalf("id=fig11: HTTP %d", code)
	}
	alias, code := getRun(t, s.Handler(), "id=table4")
	if code != http.StatusOK || alias.Key != canon.Key || !alias.Cached {
		t.Fatalf("id=table4: HTTP %d key %s cached %v, want a hit on %s", code, alias.Key, alias.Cached, canon.Key)
	}
}

// TestPostJSONBody: POST with a JSON body is equivalent to GET with query
// parameters — same key, same bytes.
func TestPostJSONBody(t *testing.T) {
	s := newTestServer(t, nil)
	viaGet, _ := getRun(t, s.Handler(), "id=table1&seed=5")
	body, _ := json.Marshal(map[string]any{"id": "table1", "seed": 5})
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("POST: HTTP %d", w.Code)
	}
	var viaPost Response
	json.Unmarshal(w.Body.Bytes(), &viaPost)
	if viaPost.Key != viaGet.Key || !bytes.Equal(viaPost.Tables, viaGet.Tables) {
		t.Fatal("POST body and GET query produced different results")
	}
	if !viaPost.Cached {
		t.Fatal("identical POST request missed the cache warmed by GET")
	}
}

// TestDrainFinishesInFlightAndRejectsNew: SIGTERM semantics — an in-flight
// request completes successfully during the drain while new arrivals get
// 503, and the drain returns once the last request is done.
func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	var started atomic.Int64
	release := make(chan struct{})
	s, err := New(Config{CacheDir: t.TempDir(), Run: stubRunner(&started, release)})
	if err != nil {
		t.Fatal(err)
	}

	inflight := make(chan int, 1)
	go func() {
		_, code := getRun(t, s.Handler(), "id=table1&seed=9")
		inflight <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Wait for draining to take effect, then probe with a new request.
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/run?id=table1&seed=10", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: HTTP %d, want 503", w.Code)
	}

	select {
	case <-drained:
		t.Fatal("Drain returned while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request during drain: HTTP %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestDrainLeavesNoGoroutines: after a drain the server's goroutines are
// gone (coalescing runners, gate waiters, drain watcher).
func TestDrainLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < 3; seed++ {
		if _, code := getRun(t, s.Handler(), fmt.Sprintf("id=table1&seed=%d", seed)); code != http.StatusOK {
			t.Fatalf("seed %d: HTTP %d", seed, code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after drain", before, runtime.NumGoroutine())
}

// TestAuxiliaryEndpoints: /experiments lists registered ids, /healthz flips
// to 503 on drain, /statz serves a JSON snapshot.
func TestAuxiliaryEndpoints(t *testing.T) {
	s, err := New(Config{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/experiments", nil))
	var ids []string
	if err := json.Unmarshal(w.Body.Bytes(), &ids); err != nil || len(ids) == 0 {
		t.Fatalf("/experiments: %v (%s)", err, w.Body.Bytes())
	}
	if !reflect.DeepEqual(ids, experiments.IDs()) {
		t.Fatal("/experiments disagrees with the registry")
	}

	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("/healthz: HTTP %d %q", w.Code, w.Body.String())
	}

	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statz", nil))
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("/statz: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after drain: HTTP %d, want 503", w.Code)
	}
}

// TestWarmRestartReusesCache: a second server over the same directory
// serves the first server's results as hits without recomputing.
func TestWarmRestartReusesCache(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, code := getRun(t, s1.Handler(), "id=volume&seed=42")
	if code != http.StatusOK {
		t.Fatalf("cold: HTTP %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(context.Background())
	warm, code := getRun(t, s2.Handler(), "id=volume&seed=42")
	if code != http.StatusOK || !warm.Cached {
		t.Fatalf("post-restart request: HTTP %d cached=%v", code, warm.Cached)
	}
	if !bytes.Equal(cold.Tables, warm.Tables) {
		t.Fatal("restarted server served different bytes for the same key")
	}
	if st := s2.Stats(); st.Computes != 0 {
		t.Fatalf("restarted server recomputed %d results it had on disk", st.Computes)
	}
}
