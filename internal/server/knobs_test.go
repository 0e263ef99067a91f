package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"teco/internal/conformance"
	"teco/internal/experiments"
)

// instantRunner is a Run override that answers at once with a stub table.
func instantRunner(_ context.Context, id string, _ experiments.Options) ([]*experiments.Table, error) {
	return []*experiments.Table{{ID: id, Title: "stub", Header: []string{"x"}}}, nil
}

// knobsReach sends the same knob settings as a GET query and as a POST JSON
// body through a stub runner and requires both to land in
// experiments.Options exactly as want (plus the server's own Workers/Ctx).
func knobsReach(t *testing.T, id string, knobs map[string]any, want experiments.Options) {
	t.Helper()
	var got experiments.Options
	s := newTestServer(t, func(c *Config) {
		c.Workers = 3
		c.Run = func(ctx context.Context, id string, opt experiments.Options) ([]*experiments.Table, error) {
			got = opt
			return instantRunner(ctx, id, opt)
		}
	})
	want.Workers = 3
	check := func(how string, r *http.Request) {
		t.Helper()
		got = experiments.Options{}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", how, w.Code, w.Body)
		}
		got.Ctx = nil
		if got != want {
			t.Fatalf("%s: knobs lost in transit:\n got %+v\nwant %+v", how, got, want)
		}
	}
	query := "id=" + id
	for name, v := range knobs {
		query += fmt.Sprintf("&%s=%v", name, v)
	}
	check("GET", httptest.NewRequest(http.MethodGet, "/run?"+query, nil))
	// A distinct seed keeps the POST cold, so the stub sees it too.
	knobs["id"], knobs["seed"], want.Seed = id, 77, 77
	body, _ := json.Marshal(knobs)
	check("POST", httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
}

func TestRunFabricKnobsReachOptions(t *testing.T) {
	knobsReach(t, "fabric",
		map[string]any{"seed": 1, "replicas": 2, "host_ports": 1, "kill_port": 2,
			"ber": 1e-6, "retry_budget": 4, "degrade": true, "ckpt_interval": 25, "crash_at": 10},
		experiments.Options{Seed: 1, Replicas: 2, HostPorts: 1, KillPort: 2,
			BER: 1e-6, RetryBudget: 4, Degrade: true, CkptInterval: 25, CrashAt: 10})
}

func TestRunLayerKnobsReachOptions(t *testing.T) {
	knobsReach(t, "layers",
		map[string]any{"seed": 1, "layers": 4, "cache_pct": 25, "prefetch": 2, "layer_policy": "fifo", "layer_seq_len": 2048},
		experiments.Options{Seed: 1, Layers: 4, CachePct: 25, PrefetchDepth: 2, LayerPolicy: "fifo", LayerSeqLen: 2048})
}

func TestRunTierKnobsReachOptions(t *testing.T) {
	knobsReach(t, "tiering",
		map[string]any{"seed": 1, "tier_policy": "lru", "tier_dram_pct": 30, "tier_migrate_budget": 128},
		experiments.Options{Seed: 1, TierPolicy: "lru", TierDRAMPct: 30, TierMigrateBudget: 128})
}

// TestRequestCeilings: one past each knob's ceiling is a 400 before
// admission; the ceiling itself is admitted.
func TestRequestCeilings(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Run = instantRunner })
	for name, ceiling := range map[string]int{
		"layers": 1 << 10, "prefetch": 1 << 6, "replicas": 1 << 10, "host_ports": 1 << 10,
		"kill_port": 1 << 10, "layer_seq_len": 1 << 20,
		"tier_migrate_budget": 1 << 20, "ckpt_interval": 1 << 20, "crash_at": 1 << 20,
		"retry_budget": 1 << 10, "cache_pct": 100, "tier_dram_pct": 100,
	} {
		// replicas rides along so kill_port meets its own ceiling first.
		q := url.Values{"id": {"table1"}, "replicas": {"1024"}}
		q.Set(name, fmt.Sprint(ceiling))
		if _, code := getRun(t, s.Handler(), q.Encode()); code != http.StatusOK {
			t.Errorf("%s=%d (its ceiling): HTTP %d, want 200", name, ceiling, code)
		}
		q.Set(name, fmt.Sprint(ceiling+1))
		if _, code := getRun(t, s.Handler(), q.Encode()); code != http.StatusBadRequest {
			t.Errorf("%s=%d (ceiling+1): HTTP %d, want 400", name, ceiling+1, code)
		}
	}
	if st := s.Stats(); st.Computes != 12 {
		t.Fatalf("computes = %d, want one per admitted ceiling request (12)", st.Computes)
	}
}

// The format museum. museumKeys pins request → cache key: these hex values
// are what entries written by any earlier release are stored under, so a
// change that moves one orphans stored results. Adding a knob must not move
// any of them; only a deliberate payloadSchema bump may, and then the
// testdata/museum entries are rewritten in the same change.
//
// The rows cover every knob kind (int64, int, float, bool, enum), aliases,
// explicit-zero ≡ omitted, alternative spellings of one value, and every
// result knob the fingerprint tests name (all distinct from their base).
var museumKeys = []struct{ query, key string }{
	{"id=table1&seed=42", "a27c5cf54cd498ba"},
	{"id=fig11&seed=42", "d84e56c422543901"},
	{"id=table4&seed=42", "d84e56c422543901"},
	{"id=fig12&seed=42", "cca0e8d68fe4d341"},
	{"id=volume&seed=42", "c141d7bb627107e6"},
	{"id=table1", "1548d8128b3c1325"},
	{"id=table1&seed=0&ber=0&degrade=false&layers=0&layer_policy=&tier_policy=", "1548d8128b3c1325"},
	{"id=table1&seed=-9007199254740993", "15bc1815f464ef88"},
	{"id=fig2&seed=42", "8d14e2a2b9afadb4"},
	{"id=fig2a&seed=42", "8d14e2a2b9afadb4"},
	{"id=recovery&seed=42", "7bdbfb32ed7b06d8"},
	{"id=faults&seed=42", "088ec4619dcc3d3e"},
	{"id=faults&seed=43", "b205fcce3bde9e4f"},
	{"id=faults&seed=42&ber=1e-5", "ea8899e98e39a98c"},
	{"id=faults&seed=42&retry_budget=2", "d728db09c5f543e1"},
	{"id=faults&seed=42&degrade=true", "27c9766e99023e5f"},
	{"id=faults&seed=42&ckpt_interval=25", "84be3e2f09706bd3"},
	{"id=faults&seed=42&crash_at=10", "6665103237a5e6d0"},
	{"id=faults&seed=42&tier_policy=lru", "59d4d907bd80fbba"},
	{"id=faults&seed=42&tier_dram_pct=25", "7a75fab3079eb348"},
	{"id=faults&seed=42&tier_migrate_budget=64", "37263b21f368c0b7"},
	{"id=faults&seed=42&ber=1e-6&retry_budget=4&degrade=true", "39b5bdf3b8816546"},
	{"id=faults&seed=42&ber=0.000001&retry_budget=4&degrade=1", "39b5bdf3b8816546"},
	{"id=layers&layers=12&cache_pct=40&prefetch=1&layer_policy=fifo&layer_seq_len=2048", "c5c6579b1e7879c3"},
	{"id=tiering&tier_policy=heat&tier_dram_pct=30&tier_migrate_budget=128", "96a48135cda20d7e"},
}

// TestMuseumKeys: every pinned request still maps to its pinned key, at
// every scheduling setting the server can be given (the flag-only knobs
// cannot appear in a request at all — TestBadRequests).
func TestMuseumKeys(t *testing.T) {
	for _, workers := range []int{1, 8} {
		s := newTestServer(t, func(c *Config) {
			c.Workers = workers
			c.Run = instantRunner
		})
		for _, row := range museumKeys {
			resp, code := getRun(t, s.Handler(), row.query)
			if code != http.StatusOK || resp.Key != row.key {
				t.Errorf("workers=%d %s: HTTP %d key %s, want %s", workers, row.query, code, resp.Key, row.key)
			}
		}
	}
}

// TestMuseumCacheSurvivesUpgrade: testdata/museum is a tecosimd cache
// directory written by the release that introduced the knob-table key
// (tecosimd -cache-dir, then GET /run for the four ids at seed 42). Every
// later build must serve it: cached, zero computations, and equal to what
// the generators produce today.
func TestMuseumCacheSurvivesUpgrade(t *testing.T) {
	dir := t.TempDir()
	entries, err := filepath.Glob("testdata/museum/res-*.teco")
	if err != nil || len(entries) != 4 {
		t.Fatalf("museum entries: %v, %v", entries, err)
	}
	for _, src := range entries {
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, func(c *Config) { c.CacheDir = dir })
	for _, row := range museumKeys[:5] {
		resp, code := getRun(t, s.Handler(), row.query)
		if code != http.StatusOK || !resp.Cached || resp.Key != row.key {
			t.Fatalf("%s: HTTP %d cached=%v key=%s, want a hit on %s", row.query, code, resp.Cached, resp.Key, row.key)
		}
		got, err := DecodeTables(resp.Tables)
		if err != nil {
			t.Fatal(err)
		}
		id := strings.TrimPrefix(strings.SplitN(row.query, "&", 2)[0], "id=")
		want, err := conformance.Generate(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: museum tables differ from today's generators", row.query)
		}
	}
	if st := s.Stats(); st.Computes != 0 || st.Hits != 5 || st.Cache.CorruptDropped != 0 {
		t.Fatalf("museum was not served from disk: %+v", st)
	}
}
