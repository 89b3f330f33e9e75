package httpapi

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
)

func newEngineServer(t *testing.T, name string) (*Server, *httptest.Server) {
	t.Helper()
	e, err := engine.NewIngest(name, 0.02, 1e-3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestEngineServers drives the full HTTP surface against every engine: the
// same requests a dashboard would make must work regardless of which
// summary sits behind the mux.
func TestEngineServers(t *testing.T) {
	for _, name := range engine.Names() {
		t.Run(name, func(t *testing.T) {
			_, ts := newEngineServer(t, name)
			var body strings.Builder
			for i := 1; i <= 20_000; i++ {
				fmt.Fprintln(&body, i)
			}
			code, out := post(t, ts.URL+"/add", body.String())
			if code != http.StatusOK || out["added"].(float64) != 20_000 {
				t.Fatalf("add: %d %v", code, out)
			}
			code, out = get(t, ts.URL+"/quantile?phi=0.5,0.9")
			if code != http.StatusOK {
				t.Fatalf("quantile: %d %v", code, out)
			}
			if med := out["0.5"].(float64); math.Abs(med-10_000) > 800 {
				t.Errorf("median %v", med)
			}
			code, out = get(t, ts.URL+"/cdf?v=5000")
			if code != http.StatusOK || math.Abs(out["cdf"].(float64)-0.25) > 0.04 {
				t.Errorf("cdf: %d %v", code, out)
			}
			code, out = get(t, ts.URL+"/histogram?buckets=4")
			if code != http.StatusOK || out["rows"].(float64) != 20_000 {
				t.Errorf("histogram: %d %v", code, out)
			}
			code, out = get(t, ts.URL+"/stats")
			if code != http.StatusOK || out["engine"].(string) != name {
				t.Errorf("stats: %d %v", code, out)
			}
			if out["count"].(float64) != 20_000 {
				t.Errorf("stats count: %v", out["count"])
			}
		})
	}
}

// TestEngineServerMetrics: the engine server's scrape surface must report
// the element count it has consumed.
func TestEngineServerMetrics(t *testing.T) {
	_, ts := newEngineServer(t, engine.KLL)
	post(t, ts.URL+"/add", "1 2 3 4 5")
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := io.Copy(buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sketch_elements_total 5") {
		t.Errorf("metrics missing element count:\n%s", buf.String())
	}
}
