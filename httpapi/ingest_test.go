package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/engine"
)

// postBinary POSTs raw bytes with the given content type and decodes the
// JSON response.
func postBinary(t *testing.T, url, contentType string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestIngestBinaryFrames(t *testing.T) {
	_, ts := newTestServer(t)
	vals := make([]float64, 50_000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	var body []byte
	body = codec.AppendIngestFrame(body, vals[:30_000])
	body = codec.AppendIngestFrame(body, vals[30_000:])

	code, out := postBinary(t, ts.URL+"/v1/ingest", codec.IngestContentType, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, out)
	}
	if out["added"].(float64) != 50_000 || out["frames"].(float64) != 2 || out["total"].(float64) != 50_000 {
		t.Fatalf("response %v", out)
	}

	code, got := get(t, ts.URL+"/quantile?phi=0.5")
	if code != http.StatusOK {
		t.Fatalf("quantile status %d: %v", code, got)
	}
	med := got["0.5"].(float64)
	if med < 24_000 || med > 26_000 {
		t.Fatalf("median %v after uniform 1..50000 ingest", med)
	}
}

func TestIngestEngineServer(t *testing.T) {
	e, err := engine.NewIngest(engine.KLL, 0.02, 1e-3, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewEngine(e)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	vals := make([]float64, 10_000)
	for i := range vals {
		vals[i] = float64(i)
	}
	code, out := postBinary(t, srv.URL+"/v1/ingest", codec.IngestContentType, codec.AppendIngestFrame(nil, vals))
	if code != http.StatusOK || out["added"].(float64) != 10_000 {
		t.Fatalf("status %d: %v", code, out)
	}
}

func TestIngestRejectsWrongContentType(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := postBinary(t, ts.URL+"/v1/ingest", "text/plain", []byte("1 2 3"))
	if code != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d: %v", code, out)
	}
	if msg, ok := out["error"].(string); !ok || !strings.Contains(msg, codec.IngestContentType) {
		t.Fatalf("error body %v should name the expected content type", out)
	}
}

func TestIngestBadFrame(t *testing.T) {
	_, ts := newTestServer(t)
	frame := codec.AppendIngestFrame(nil, []float64{1, 2, 3})
	frame[len(frame)-1] ^= 1 // break the CRC
	code, out := postBinary(t, ts.URL+"/v1/ingest", codec.IngestContentType, frame)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d: %v", code, out)
	}
	if msg := out["error"].(string); !strings.Contains(msg, "checksum") {
		t.Fatalf("error %q should mention the checksum", msg)
	}

	// Partial acceptance: a good frame followed by a truncated one reports
	// the values already ingested.
	body := codec.AppendIngestFrame(nil, []float64{1, 2, 3})
	body = append(body, codec.AppendIngestFrame(nil, []float64{4, 5})[:10]...)
	code, out = postBinary(t, ts.URL+"/v1/ingest", codec.IngestContentType, body)
	if code != http.StatusBadRequest {
		t.Fatalf("status %d: %v", code, out)
	}
	if msg := out["error"].(string); !strings.Contains(msg, "after 3 values") {
		t.Fatalf("error %q should report the 3 accepted values", msg)
	}
}

func TestIngestBodyCap(t *testing.T) {
	s, ts := newTestServer(t)
	s.SetMaxBodyBytes(1024)
	frame := codec.AppendIngestFrame(nil, make([]float64, 1000)) // ~8KB > cap
	code, out := postBinary(t, ts.URL+"/v1/ingest", codec.IngestContentType, frame)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %v", code, out)
	}
}

func TestAddRejectsUnsupportedContentType(t *testing.T) {
	_, ts := newTestServer(t)
	code, out := postBinary(t, ts.URL+"/add", "application/json", []byte(`[1,2,3]`))
	if code != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d: %v", code, out)
	}
	if _, ok := out["error"].(string); !ok {
		t.Fatalf("want structured JSON error body, got %v", out)
	}

	// Slab frames aimed at /add get redirected to the binary endpoint.
	code, out = postBinary(t, ts.URL+"/add", codec.IngestContentType, codec.AppendIngestFrame(nil, []float64{1}))
	if code != http.StatusUnsupportedMediaType {
		t.Fatalf("status %d: %v", code, out)
	}
	if msg := out["error"].(string); !strings.Contains(msg, "/v1/ingest") {
		t.Fatalf("error %q should point at /v1/ingest", msg)
	}

	// The usual text labels still work, parameters and all.
	resp, err := http.Post(ts.URL+"/add", "text/plain; charset=utf-8", strings.NewReader("1 2 3"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text/plain with params: status %d", resp.StatusCode)
	}
}
