package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"teco/internal/fabric"
	"teco/internal/realtrain"
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

// TestStatzExposesFabricCounters: /statz surfaces the process-wide fabric
// telemetry — a degraded data-parallel run moves the degraded-mode and
// frame counters, and the JSON names are the documented ones. The counters
// are process-global and monotone, so the test asserts deltas.
func TestStatzExposesFabricCounters(t *testing.T) {
	s := newTestServer(t, nil)
	before := statz(t, s.Handler()).Fabric

	// Drive a real kill-one-port training run through the fabric transport;
	// its lifecycle events land in the telemetry /statz snapshots.
	g, err := realtrain.NewGroup(realtrain.GroupConfig{
		Train:      realtrain.Config{Steps: 12, PreSteps: 6, Seed: 5},
		Replicas:   2,
		KillPort:   2,
		KillAtStep: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}

	after := statz(t, s.Handler()).Fabric
	if after.Frames <= before.Frames {
		t.Fatalf("frame counter never moved: before %+v after %+v", before, after)
	}
	if after.PortsDown <= before.PortsDown || after.LostReplicas <= before.LostReplicas {
		t.Fatalf("port-kill counters never moved: before %+v after %+v", before, after)
	}
	if after.DegradedSteps <= before.DegradedSteps || after.Redistributed <= before.Redistributed {
		t.Fatalf("degraded-mode counters never moved: before %+v after %+v", before, after)
	}

	// The wire names are part of the operator interface; pin them.
	raw, err := json.Marshal(Stats{Fabric: fabric.Snapshot{}})
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]json.RawMessage
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	var fb map[string]json.RawMessage
	if err := json.Unmarshal(tree["fabric"], &fb); err != nil {
		t.Fatalf("no fabric block in /statz: %s", raw)
	}
	for _, name := range []string{"ports_down", "failovers", "failover_retries",
		"frames", "frame_retries", "frames_poisoned",
		"degraded_steps", "lost_replicas", "redistributed_shards", "rebuilds"} {
		if _, ok := fb[name]; !ok {
			t.Fatalf("fabric counter %q missing from /statz", name)
		}
	}
}
