package httpapi

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/stream"
)

// TestStatsKeyedMemoryElements checks that /stats serves the keyed store's
// exact resident footprint beside its worst-case bound, and that after
// ingest it is positive and within the bound.
func TestStatsKeyedMemoryElements(t *testing.T) {
	_, ts := newTestServer(t)
	frames := map[string][]float64{}
	order := []string{"a", "b", "c"}
	for i, key := range order {
		frames[key] = stream.Collect(stream.Uniform(20000, uint64(7+i)))
	}
	if code, out := postBinary(t, ts.URL+"/v1/ingest/keyed", codec.KeyedIngestContentType, keyedBody(frames, order)); code != 200 {
		t.Fatalf("keyed ingest status %d: %v", code, out)
	}
	code, out := get(t, ts.URL+"/stats")
	if code != 200 {
		t.Fatalf("stats status %d: %v", code, out)
	}
	ks := out["keyed"].(map[string]any)
	mem, ok := ks["memory_elements"].(float64)
	if !ok {
		t.Fatalf("stats keyed block has no memory_elements: %v", ks)
	}
	bound := ks["memory_bound_elements"].(float64)
	if mem <= 0 || mem > bound {
		t.Errorf("memory_elements = %v, want in (0, %v]", mem, bound)
	}
}
