package httpapi

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/codec"
)

// TestPhiListCapped checks that the caller cannot size a query's work: a
// /quantile list of more than 1000 φ is a structured 400 on the flat and
// keyed surfaces alike, while exactly 1000 is still answered.
func TestPhiListCapped(t *testing.T) {
	_, ts := newTestServer(t)
	if code, out := post(t, ts.URL+"/add", "1\n2\n3\n"); code != http.StatusOK {
		t.Fatalf("add: %d %v", code, out)
	}
	body := keyedBody(map[string][]float64{"k": {1, 2, 3}}, []string{"k"})
	if code, out := postBinary(t, ts.URL+"/v1/ingest/keyed", codec.KeyedIngestContentType, body); code != http.StatusOK {
		t.Fatalf("keyed ingest: %d %v", code, out)
	}
	phis := func(n int) string { return strings.TrimSuffix(strings.Repeat("0.5,", n), ",") }
	for _, prefix := range []string{"/quantile?phi=", "/quantile?key=k&phi="} {
		if code, out := get(t, ts.URL+prefix+phis(1000)); code != http.StatusOK {
			t.Errorf("%s<1000 phis>: status %d %v, want 200", prefix, code, out)
		}
		code, out := get(t, ts.URL+prefix+phis(1001))
		if code != http.StatusBadRequest {
			t.Errorf("%s<1001 phis>: status %d, want 400", prefix, code)
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, "at most 1000") {
			t.Errorf("%s<1001 phis>: error %q does not name the limit", prefix, msg)
		}
	}
}
