package agg

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/cluster"
	"repro/internal/stream"
)

// TestQueryParamsMatchHTTPAPI pins the coordinator's query-parameter rules
// to the standalone server's, on a coordinator and on an aggregator (which
// mounts the coordinator's handlers): numeric parameters are trimmed before
// parsing, and a φ list longer than 1000 entries is a structured 400
// rather than a caller-sized amount of work.
func TestQueryParamsMatchHTTPAPI(t *testing.T) {
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Eps: 0.02, Delta: 1e-3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := New(Config{
		ID: "a0", Level: 1, Eps: 0.02, Delta: 1e-3, Seed: 5,
		ParentURL: "http://parent:9090", Transport: &memTransport{},
	})
	if err != nil {
		t.Fatal(err)
	}
	data := stream.Collect(stream.Shuffled(4000, 17))
	env := childEnvelope(t, "w0", 1, 0.02, 1e-3, data, 100)
	for name, ingest := range map[string]func(cluster.Envelope) (int, cluster.ShipResult){
		"coordinator": coord.Ingest, "aggregator": ag.Ingest,
	} {
		if status, res := ingest(env); status != http.StatusOK || res.Status != cluster.StatusAccepted {
			t.Fatalf("%s seed shipment: status %d %+v", name, status, res)
		}
	}

	phis := func(n int) string { return strings.TrimSuffix(strings.Repeat("0.5,", n), ",") }
	cases := []struct {
		path   string
		status int
	}{
		{"/cdf?v=%200.5", http.StatusOK},
		{"/cdf?v=0.5%20", http.StatusOK},
		{"/histogram?buckets=%2010", http.StatusOK},
		{"/histogram?buckets=10%20", http.StatusOK},
		{"/quantile?phi=%200.5", http.StatusOK},
		{"/quantile?phi=" + phis(1000), http.StatusOK},
		{"/quantile?phi=" + phis(1001), http.StatusBadRequest},
		{"/histogram?buckets=1001", http.StatusBadRequest},
		{"/cdf?v=%20NaN", http.StatusBadRequest},
	}
	for name, h := range map[string]http.Handler{"coordinator": coord.Handler(), "aggregator": ag.Handler()} {
		for _, tc := range cases {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
			label := tc.path
			if len(label) > 40 {
				label = label[:40] + "..."
			}
			if rec.Code != tc.status {
				t.Errorf("%s GET %s: status %d (body %.200s), want %d", name, label, rec.Code, rec.Body, tc.status)
				continue
			}
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Errorf("%s GET %s: body is not JSON: %v", name, label, err)
				continue
			}
			if tc.status != http.StatusOK {
				if msg, _ := body["error"].(string); msg == "" {
					t.Errorf("%s GET %s: 400 without a structured error: %v", name, label, body)
				}
				continue
			}
			if strings.HasPrefix(tc.path, "/histogram") && body["buckets"] != float64(10) {
				t.Errorf("%s GET %s: buckets = %v, want 10", name, label, body["buckets"])
			}
		}
	}
}
