package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"teco/internal/fabric"
)

// statz fetches and decodes /statz.
func statz(t *testing.T, h http.Handler) Stats {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/statz: HTTP %d", w.Code)
	}
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("/statz: %v\n%s", err, w.Body.Bytes())
	}
	return st
}

// mustRun serves one /run request and fails the test unless it succeeds.
func mustRun(t *testing.T, h http.Handler, query string) {
	t.Helper()
	if _, code := getRun(t, h, query); code != http.StatusOK {
		t.Fatalf("/run?%s: HTTP %d", query, code)
	}
}

// wireNames decodes block's JSON field names as /statz serves them.
func wireNames(t *testing.T, st Stats, block string) map[string]json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var tree, names map[string]json.RawMessage
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tree[block], &names); err != nil {
		t.Fatalf("no %s block in /statz: %s", block, raw)
	}
	return names
}

// TestStatzExposesFabricCounters: a served fabric-faults request — whose
// kill+spare cells fail over and whose kill cells exhaust the failover
// probes — moves the process-wide fabric counters /statz reports, and the
// JSON names are the documented ones. The counters are process-global and
// monotone, so the test asserts deltas.
func TestStatzExposesFabricCounters(t *testing.T) {
	s := newTestServer(t, nil)
	before := statz(t, s.Handler()).Fabric
	mustRun(t, s.Handler(), "id=fabric-faults&seed=5")
	after := statz(t, s.Handler()).Fabric
	if after.PortsDown <= before.PortsDown || after.Failovers <= before.Failovers {
		t.Fatalf("port-kill counters never moved: before %+v after %+v", before, after)
	}
	if after.FailoverRetries <= before.FailoverRetries {
		t.Fatalf("failover-retry counter never moved: before %+v after %+v", before, after)
	}

	// The wire names are part of the operator interface; pin them.
	names := wireNames(t, Stats{Fabric: fabric.Snapshot{}}, "fabric")
	for _, name := range []string{"ports_down", "failovers", "failover_retries"} {
		if _, ok := names[name]; !ok {
			t.Fatalf("fabric counter %q missing from /statz", name)
		}
	}
	if len(names) != 3 {
		t.Fatalf("fabric block has %d counters, want 3: %v", len(names), names)
	}
}
