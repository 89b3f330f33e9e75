package cluster

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

func newEngineCoordinator(t *testing.T, name string) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{
		Eps: testEps, Delta: testDelta, Seed: 42,
		Engine: name,
		Logger: testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEngineMismatchShipmentRejected: a worker running one engine ships
// into a coordinator running another. The coordinator must refuse with a
// 409 naming both engines, the shipper must classify that as permanent
// (drop, never retry), and the refusal must be visible on /metrics.
func TestEngineMismatchShipmentRejected(t *testing.T) {
	coord := newEngineCoordinator(t, engine.KLL)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	e, err := engine.NewIngest(engine.GK, testEps, testDelta, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(e, WorkerConfig{
		ID:             "w-gk",
		CoordinatorURL: srv.URL,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
		Logger:         testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.AddAll(shuffled(0, 1000, 11))
	// Permanent rejections are absorbed by the cycle: the epoch is popped
	// and dropped, so the cycle itself reports success and a steady-state
	// worker loop does not spin on the poisoned epoch.
	if err := w.ShipOnce(context.Background()); err != nil {
		t.Fatalf("ShipOnce surfaced a permanent rejection as retryable: %v", err)
	}
	st := w.Stats()
	if st.Dropped != 1 || st.Retries != 0 || st.Shipped != 0 || st.Pending != 0 {
		t.Fatalf("stats after mismatch: %+v, want exactly one dropped epoch and zero retries", st)
	}
	if got := coord.Count(); got != 0 {
		t.Fatalf("mismatched shipment leaked %d elements into the coordinator", got)
	}

	// The raw HTTP surface: a legacy (untagged, i.e. mrl99) envelope must
	// also be refused, with an error naming both engines.
	body := shipEnvelope(t, "w-legacy", 1, shuffled(0, 500, 3))
	status, res := postShipment(t, srv.URL, body)
	if status != 409 {
		t.Fatalf("legacy envelope into kll coordinator: status %d, want 409", status)
	}
	if !strings.Contains(res.Error, `"mrl99"`) || !strings.Contains(res.Error, `"kll"`) {
		t.Errorf("rejection must name both engines, got %q", res.Error)
	}

	var metrics strings.Builder
	coord.Registry().WritePrometheus(&metrics)
	if !strings.Contains(metrics.String(), "cluster_shipments_engine_mismatch_total 2") {
		t.Errorf("metrics missing mismatch count:\n%s", metrics.String())
	}
}

// TestEngineClusterEndToEnd: matched-engine clusters work for every
// engine — same ship/dedup/query loop the mrl99 path has always run.
func TestEngineClusterEndToEnd(t *testing.T) {
	for _, name := range []string{engine.KLL, engine.GK} {
		t.Run(name, func(t *testing.T) {
			coord := newEngineCoordinator(t, name)
			srv := httptest.NewServer(coord.Handler())
			defer srv.Close()

			e, err := engine.NewIngest(name, testEps, testDelta, 0, 9)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorker(e, WorkerConfig{
				ID:             "w0",
				CoordinatorURL: srv.URL,
				BackoffBase:    time.Millisecond,
				BackoffMax:     5 * time.Millisecond,
				Logger:         testLogger(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			const n = 20_000
			w.AddAll(shuffled(0, n, 17))
			if err := w.ShipOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := coord.Count(); got != n {
				t.Fatalf("coordinator count %d, want %d", got, n)
			}
			got := queryQuantiles(t, srv.URL, []float64{0.5})
			if med := got["0.5"]; med < (0.5-2*testEps)*n || med > (0.5+2*testEps)*n {
				t.Errorf("median %v outside 2ε window", med)
			}
			var stats map[string]any
			getJSON(t, srv.URL+"/stats", &stats)
			if stats["engine"] != name {
				t.Errorf("stats engine %v, want %s", stats["engine"], name)
			}
			// Replay protection holds on the engine path too.
			env := Envelope{Worker: "w0", Epoch: 1, Eps: testEps, Delta: testDelta, Engine: name, Count: 1, Blob: []byte("x")}
			body, _ := json.Marshal(env)
			if status, res := postShipment(t, srv.URL, body); status != 200 || res.Status != StatusDuplicate {
				t.Fatalf("replayed epoch: %d %+v", status, res)
			}
		})
	}
}
