package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	quantile "repro"
	"repro/internal/rng"
)

const (
	testEps   = 0.02
	testDelta = 1e-3
)

// testLogWriter routes component logs into the test log.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t: t}, nil))
}

func newTestCoordinator(t *testing.T, checkpoint string) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{
		Eps: testEps, Delta: testDelta, Seed: 99,
		CheckpointPath: checkpoint,
		Logger:         testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newTestWorker(t *testing.T, id, url string) *Worker {
	t.Helper()
	sk, err := quantile.NewConcurrent[float64](testEps, testDelta, 2, quantile.WithSeed(uint64(len(id))*7+3))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(sk, WorkerConfig{
		ID:             id,
		CoordinatorURL: url,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
		Logger:         testLogger(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// shuffled returns a deterministic permutation of [lo, hi).
func shuffled(lo, hi int, seed uint64) []float64 {
	vals := make([]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		vals = append(vals, float64(i))
	}
	rg := rng.New(seed)
	for i := len(vals) - 1; i > 0; i-- {
		j := rg.Intn(i + 1)
		vals[i], vals[j] = vals[j], vals[i]
	}
	return vals
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func queryQuantiles(t *testing.T, base string, phis []float64) map[string]float64 {
	t.Helper()
	parts := make([]string, len(phis))
	for i, phi := range phis {
		parts[i] = fmt.Sprintf("%g", phi)
	}
	var out map[string]float64
	getJSON(t, base+"/quantile?phi="+strings.Join(parts, ","), &out)
	return out
}

// TestClusterEndToEnd is the acceptance scenario: 4 workers ingest
// disjoint shuffled ranges, ship over several epochs, and the coordinator
// answers φ-quantile queries over the union within ε·N rank error.
func TestClusterEndToEnd(t *testing.T) {
	coord := newTestCoordinator(t, "")
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	const workers, perWorker, epochs = 4, 25_000, 3
	const n = workers * perWorker
	ctx := context.Background()
	for wi := 0; wi < workers; wi++ {
		w := newTestWorker(t, fmt.Sprintf("w%d", wi), srv.URL)
		vals := shuffled(wi*perWorker, (wi+1)*perWorker, uint64(wi+1))
		per := len(vals) / epochs
		for e := 0; e < epochs; e++ {
			hi := (e + 1) * per
			if e == epochs-1 {
				hi = len(vals)
			}
			w.Sketch().AddAll(vals[e*per : hi])
			if err := w.ShipOnce(ctx); err != nil {
				t.Fatalf("worker %d epoch %d: %v", wi, e, err)
			}
		}
		st := w.Stats()
		if st.Shipped != epochs || st.Pending != 0 || st.Dropped != 0 {
			t.Fatalf("worker %d stats: %+v", wi, st)
		}
	}
	if got := coord.Count(); got != n {
		t.Fatalf("coordinator count %d, want %d", got, n)
	}

	// Union stream is a permutation of 0..n-1, so rank(v) = v+1: the rank
	// error of an estimate is just its distance from φ·n.
	phis := []float64{0.01, 0.5, 0.99}
	got := queryQuantiles(t, srv.URL, phis)
	for _, phi := range phis {
		est := got[fmt.Sprintf("%g", phi)]
		exact := phi * n
		if diff := est - exact; diff < -testEps*n || diff > testEps*n {
			t.Errorf("phi=%g: estimate %v, exact %v, rank error %v > eps*n = %v",
				phi, est, exact, diff, testEps*n)
		}
	}

	// CDF of the median value must be ~0.5.
	var cdf struct {
		CDF float64 `json:"cdf"`
	}
	getJSON(t, srv.URL+fmt.Sprintf("/cdf?v=%d", n/2), &cdf)
	if cdf.CDF < 0.5-testEps || cdf.CDF > 0.5+testEps {
		t.Errorf("CDF(n/2) = %v, want ~0.5", cdf.CDF)
	}

	// Histogram boundaries are monotone and span the data.
	var hist struct {
		Boundaries []float64 `json:"boundaries"`
		Rows       uint64    `json:"rows"`
	}
	getJSON(t, srv.URL+"/histogram?buckets=10", &hist)
	if hist.Rows != n || len(hist.Boundaries) != 9 {
		t.Fatalf("histogram rows=%d boundaries=%d", hist.Rows, len(hist.Boundaries))
	}
	for i := 1; i < len(hist.Boundaries); i++ {
		if hist.Boundaries[i] < hist.Boundaries[i-1] {
			t.Errorf("histogram boundaries not monotone at %d: %v", i, hist.Boundaries)
		}
	}

	// Observability surface.
	var health struct {
		Status  string                  `json:"status"`
		Count   uint64                  `json:"count"`
		Workers map[string]WorkerStatus `json:"workers"`
	}
	getJSON(t, srv.URL+"/healthz", &health)
	if health.Status != "ok" || health.Count != n || len(health.Workers) != workers {
		t.Errorf("healthz: %+v", health)
	}
	if ws := health.Workers["w0"]; ws.LastEpoch != epochs || ws.Count != perWorker {
		t.Errorf("healthz worker w0: %+v", ws)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("cluster_shipments_accepted_total %d", workers*epochs),
		fmt.Sprintf("cluster_elements_total %d", n),
		"cluster_shipments_deduped_total 0",
		"cluster_merge_seconds_count",
		`cluster_worker_lag_seconds{worker="w0"}`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// shipEnvelope cuts one epoch from a fresh sketch and returns the wire
// envelope, for tests that need to replay exact bytes.
func shipEnvelope(t *testing.T, worker string, epoch uint64, vals []float64) []byte {
	t.Helper()
	sk, err := quantile.NewConcurrent[float64](testEps, testDelta, 2, quantile.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	sk.AddAll(vals)
	blob, count, err := sk.ShipAndReset(quantile.Float64Codec())
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(Envelope{
		Worker: worker, Epoch: epoch,
		Eps: testEps, Delta: testDelta,
		Count: count, Blob: blob,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postShipment(t *testing.T, url string, body []byte) (int, ShipResult) {
	t.Helper()
	resp, err := http.Post(url+ShipPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res ShipResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, res
}

// TestDuplicateShipmentNotDoubleCounted replays the identical envelope and
// checks that neither the count nor the answers move.
func TestDuplicateShipmentNotDoubleCounted(t *testing.T) {
	coord := newTestCoordinator(t, "")
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	body := shipEnvelope(t, "dup-worker", 1, shuffled(0, 10_000, 3))
	status, res := postShipment(t, srv.URL, body)
	if status != http.StatusOK || res.Status != StatusAccepted || res.Count != 10_000 {
		t.Fatalf("first shipment: %d %+v", status, res)
	}
	phis := []float64{0.01, 0.5, 0.99}
	before := queryQuantiles(t, srv.URL, phis)

	status, res = postShipment(t, srv.URL, body)
	if status != http.StatusOK || res.Status != StatusDuplicate {
		t.Fatalf("replayed shipment: %d %+v", status, res)
	}
	if res.Count != 10_000 {
		t.Fatalf("replay changed count to %d", res.Count)
	}
	after := queryQuantiles(t, srv.URL, phis)
	for k, v := range before {
		if after[k] != v {
			t.Errorf("phi=%s: answer moved from %v to %v after replay", k, v, after[k])
		}
	}
	if got := coord.Count(); got != 10_000 {
		t.Errorf("count %d after replay", got)
	}
}

// TestRejectedShipmentsLeaveStateUntouched covers the compatibility and
// validation rejections.
func TestRejectedShipmentsLeaveStateUntouched(t *testing.T) {
	coord := newTestCoordinator(t, "")
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// eps mismatch → 409.
	var env Envelope
	if err := json.Unmarshal(shipEnvelope(t, "w", 1, shuffled(0, 1000, 1)), &env); err != nil {
		t.Fatal(err)
	}
	env.Eps = 0.05
	body, _ := json.Marshal(env)
	if status, _ := postShipment(t, srv.URL, body); status != http.StatusConflict {
		t.Errorf("eps mismatch: status %d, want 409", status)
	}

	// Garbage blob → 400.
	env.Eps = testEps
	env.Blob = []byte("not a shipment")
	body, _ = json.Marshal(env)
	if status, _ := postShipment(t, srv.URL, body); status != http.StatusBadRequest {
		t.Errorf("garbage blob: status %d, want 400", status)
	}

	// Garbage JSON → 400.
	if status, _ := postShipment(t, srv.URL, []byte("{")); status != http.StatusBadRequest {
		t.Errorf("garbage JSON: status %d, want 400", status)
	}

	if got := coord.Count(); got != 0 {
		t.Errorf("rejected shipments leaked %d elements into the aggregate", got)
	}
}

// TestCoordinatorCheckpointRestart kills the coordinator and restores a
// fresh one from its checkpoint: count, answers and the dedup table must
// all survive.
func TestCoordinatorCheckpointRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coordinator.ckpt")
	coord := newTestCoordinator(t, path)
	srv := httptest.NewServer(coord.Handler())

	body := shipEnvelope(t, "ckpt-worker", 1, shuffled(0, 20_000, 9))
	if status, res := postShipment(t, srv.URL, body); status != http.StatusOK || res.Status != StatusAccepted {
		t.Fatalf("shipment: %d %+v", status, res)
	}
	phis := []float64{0.01, 0.5, 0.99}
	before := queryQuantiles(t, srv.URL, phis)
	if err := coord.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	srv.Close() // the crash

	restored := newTestCoordinator(t, path)
	srv2 := httptest.NewServer(restored.Handler())
	defer srv2.Close()
	if got := restored.Count(); got != 20_000 {
		t.Fatalf("restored count %d, want 20000", got)
	}
	after := queryQuantiles(t, srv2.URL, phis)
	for k, v := range before {
		if after[k] != v {
			t.Errorf("phi=%s: restored answer %v != pre-crash %v", k, after[k], v)
		}
	}
	// The dedup table survived: replaying the pre-crash shipment is a no-op.
	if status, res := postShipment(t, srv2.URL, body); status != http.StatusOK || res.Status != StatusDuplicate {
		t.Fatalf("replay after restart: %d %+v", status, res)
	}
	if got := restored.Count(); got != 20_000 {
		t.Errorf("replay after restart changed count to %d", got)
	}
}

// TestWorkerRetryBackoffRecovers injects faults: the coordinator's front
// door drops the first rejectN shipment POSTs (after the backend has
// already processed one of them, simulating a lost acknowledgement). The
// worker's retry loop must recover with no duplicate counting.
func TestWorkerRetryBackoffRecovers(t *testing.T) {
	coord := newTestCoordinator(t, "")
	var calls atomic.Int64
	const rejectN = 3
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == ShipPath {
			switch n := calls.Add(1); {
			case n == 1:
				// Outage: drop the request before the backend sees it.
				http.Error(w, "injected outage", http.StatusServiceUnavailable)
				return
			case n <= rejectN:
				// Lost ack: the backend processes the shipment, but the
				// worker sees a 502.
				coord.Handler().ServeHTTP(httptest.NewRecorder(), r)
				http.Error(w, "injected lost ack", http.StatusBadGateway)
				return
			}
		}
		coord.Handler().ServeHTTP(w, r)
	})
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	w := newTestWorker(t, "flaky-w", srv.URL)
	w.Sketch().AddAll(shuffled(0, 30_000, 4))
	if err := w.ShipOnce(context.Background()); err != nil {
		t.Fatalf("ShipOnce through flaky front door: %v", err)
	}
	st := w.Stats()
	if st.Retries < rejectN {
		t.Errorf("worker stats show %d retries, want >= %d: %+v", st.Retries, rejectN, st)
	}
	if st.Shipped != 1 || st.Pending != 0 || st.Dropped != 0 {
		t.Errorf("worker stats after recovery: %+v", st)
	}
	if got := coord.Count(); got != 30_000 {
		t.Errorf("coordinator count %d, want 30000 (no duplicate counting)", got)
	}
	if deduped := coord.m.shipmentsDeduped.Value(); deduped != rejectN-1 {
		t.Errorf("deduped %d retransmissions, want %d", deduped, rejectN-1)
	}

	// The recovered pipeline still answers correctly.
	med := queryQuantiles(t, srv.URL, []float64{0.5})["0.5"]
	if diff := med - 15_000; diff < -testEps*30_000 || diff > testEps*30_000 {
		t.Errorf("median %v too far from 15000", med)
	}
}

// TestWorkerParksEpochsDuringOutage verifies that epochs cut while the
// coordinator is down are delivered by a later cycle, in order.
func TestWorkerParksEpochsDuringOutage(t *testing.T) {
	coord := newTestCoordinator(t, "")
	var down atomic.Bool
	gate := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() && r.URL.Path == ShipPath {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		coord.Handler().ServeHTTP(w, r)
	})
	srv := httptest.NewServer(gate)
	defer srv.Close()

	w := newTestWorker(t, "parked-w", srv.URL)
	w.ship.cfg.MaxRetries = 1
	ctx := context.Background()

	down.Store(true)
	w.Sketch().AddAll(shuffled(0, 5_000, 2))
	if err := w.ShipOnce(ctx); err == nil {
		t.Fatal("ShipOnce succeeded against a down coordinator")
	}
	w.Sketch().AddAll(shuffled(5_000, 10_000, 6))
	if err := w.ShipOnce(ctx); err == nil {
		t.Fatal("second ShipOnce succeeded against a down coordinator")
	}
	if st := w.Stats(); st.Pending != 2 {
		t.Fatalf("pending %d epochs during outage, want 2", st.Pending)
	}

	down.Store(false)
	if err := w.ShipOnce(ctx); err != nil {
		t.Fatalf("ShipOnce after recovery: %v", err)
	}
	if st := w.Stats(); st.Pending != 0 || st.Shipped != 2 || st.Dropped != 0 {
		t.Fatalf("stats after recovery: %+v", st)
	}
	if got := coord.Count(); got != 10_000 {
		t.Errorf("coordinator count %d, want 10000", got)
	}
}

// TestWorkerRunGracefulDrain checks that cancelling Run ships the tail.
func TestWorkerRunGracefulDrain(t *testing.T) {
	coord := newTestCoordinator(t, "")
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	w := newTestWorker(t, "drain-w", srv.URL)
	w.cfg.ShipInterval = time.Hour // only the drain path ships
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		w.Run(ctx)
		close(done)
	}()
	w.Sketch().AddAll(shuffled(0, 8_000, 8))
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if got := coord.Count(); got != 8_000 {
		t.Errorf("coordinator count %d after drain, want 8000", got)
	}
}

// TestShipErrorsAreStructured pins the ship path's error contract: every
// rejection — body too large, malformed JSON, eps/delta mismatch, buffer-k
// mismatch, count mismatch, incomplete envelope — returns the right status
// code AND a parseable ShipResult JSON body with status "rejected" and a
// human-readable error, so workers can log the cause instead of a raw
// HTTP status line.
func TestShipErrorsAreStructured(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{
		Eps: testEps, Delta: testDelta, Seed: 4, MaxBodyBytes: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	valid := func() Envelope {
		var env Envelope
		if err := json.Unmarshal(shipEnvelope(t, "w", 1, shuffled(0, 500, 1)), &env); err != nil {
			t.Fatal(err)
		}
		return env
	}
	marshal := func(env Envelope) []byte {
		body, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// A blob built at a different eps carries a different buffer size k;
	// relabeling its envelope with the coordinator's eps/delta gets past
	// the parameter check and must then trip the k check.
	mismatchedK := func() Envelope {
		sk, err := quantile.NewConcurrent[float64](0.1, testDelta, 1, quantile.WithSeed(8))
		if err != nil {
			t.Fatal(err)
		}
		sk.AddAll(shuffled(0, 500, 2))
		blob, count, err := sk.ShipAndReset(quantile.Float64Codec())
		if err != nil {
			t.Fatal(err)
		}
		return Envelope{Worker: "w", Epoch: 1, Eps: testEps, Delta: testDelta, Count: count, Blob: blob}
	}
	// A KLL blob in an untagged (mrl99) envelope gets past the engine-tag
	// check; the codec then finds a well-formed frame of the wrong kind,
	// a permanent incompatibility.
	foreignBlob := func() Envelope {
		blob, count := childShipment(t, "kll", shuffled(0, 500, 3), 3)
		return Envelope{Worker: "w", Epoch: 1, Eps: testEps, Delta: testDelta, Count: count, Blob: blob}
	}

	cases := []struct {
		name    string
		body    []byte
		status  int
		errPart string
	}{
		{"oversized body", marshal(func() Envelope {
			env := valid()
			env.Blob = make([]byte, 32<<10)
			return env
		}()), http.StatusRequestEntityTooLarge, "exceeds"},
		{"malformed JSON", []byte(`{"worker": "w", "epoch":`), http.StatusBadRequest, "decoding envelope"},
		{"eps mismatch", marshal(func() Envelope { env := valid(); env.Eps = 0.05; return env }()),
			http.StatusConflict, "eps=0.05"},
		{"delta mismatch", marshal(func() Envelope { env := valid(); env.Delta = 0.5; return env }()),
			http.StatusConflict, "delta=0.5"},
		{"k mismatch", marshal(mismatchedK()), http.StatusConflict, "buffer size"},
		{"foreign engine blob", marshal(foreignBlob()), http.StatusConflict, "frame kind"},
		{"count mismatch", marshal(func() Envelope { env := valid(); env.Count += 7; return env }()),
			http.StatusBadRequest, "count"},
		{"missing worker id", marshal(func() Envelope { env := valid(); env.Worker = ""; return env }()),
			http.StatusBadRequest, "worker id"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+ShipPath, "application/json", bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Errorf("status %d, want %d", resp.StatusCode, c.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			var res ShipResult
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				t.Fatalf("body is not a ShipResult: %v", err)
			}
			if res.Status != StatusRejected {
				t.Errorf("status field %q, want %q", res.Status, StatusRejected)
			}
			if !strings.Contains(res.Error, c.errPart) {
				t.Errorf("error %q does not mention %q", res.Error, c.errPart)
			}
		})
	}
	if got := coord.Count(); got != 0 {
		t.Errorf("rejections leaked %d elements into the aggregate", got)
	}
}

// stuckTransport always fails with a transient error, so every delivery
// runs the full retry/backoff ladder.
type stuckTransport struct{}

func (stuckTransport) Ship(context.Context, Envelope) (ShipResult, error) {
	return ShipResult{}, fmt.Errorf("transient: coordinator unreachable")
}

// stuckClock signals the first backoff sleep and then blocks until
// released, freezing a ship cycle mid-backoff on demand.
type stuckClock struct {
	once     sync.Once
	sleeping chan struct{} // closed when the first Sleep begins
	release  chan struct{} // closing it lets every Sleep return
}

func newStuckClock() *stuckClock {
	return &stuckClock{sleeping: make(chan struct{}), release: make(chan struct{})}
}

func (c *stuckClock) Now() time.Time { return time.Now() }

func (c *stuckClock) Sleep(ctx context.Context, d time.Duration) error {
	c.once.Do(func() { close(c.sleeping) })
	select {
	case <-c.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestStatsDoesNotBlockDuringBackoff is the regression test for the
// lock-hold bug: ShipOnce used to hold the worker mutex across the whole
// delivery loop, backoff sleeps included, so Stats() (and any other
// observer) froze for up to MaxRetries×BackoffMax whenever the coordinator
// was unreachable. With the cycle frozen inside its first backoff sleep,
// Stats must still return promptly and see the cut epoch as pending.
func TestStatsDoesNotBlockDuringBackoff(t *testing.T) {
	sk, err := quantile.NewConcurrent[float64](testEps, testDelta, 1, quantile.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	clk := newStuckClock()
	w, err := NewWorker(sk, WorkerConfig{
		ID:        "stuck-w",
		Transport: stuckTransport{},
		Clock:     clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Sketch().AddAll(shuffled(0, 1_000, 1))

	done := make(chan error, 1)
	go func() {
		done <- w.ShipOnce(context.Background())
	}()
	<-clk.sleeping // the cycle is now parked inside its first backoff sleep

	statsCh := make(chan WorkerStats, 1)
	go func() { statsCh <- w.Stats() }()
	select {
	case st := <-statsCh:
		if st.Epoch != 1 || st.Pending != 1 || st.Shipped != 0 {
			t.Errorf("mid-backoff stats: %+v, want epoch 1 pending 1", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats() blocked while ShipOnce was sleeping in backoff")
	}

	close(clk.release)
	if err := <-done; err == nil {
		t.Error("ShipOnce succeeded against a transport that always fails")
	}
	if st := w.Stats(); st.Pending != 1 {
		t.Errorf("epoch not kept pending after failed cycle: %+v", st)
	}
}

// TestCoordinatorRejectsNonFiniteQueryParams is the regression test for the
// NaN validation hole: strconv.ParseFloat happily parses "NaN" and "Inf",
// and NaN compares false against everything, so `phi <= 0 || phi > 1`
// waved NaN through into the rank arithmetic (and /cdf had no finite check
// at all). Every non-finite query parameter must be a 400.
func TestCoordinatorRejectsNonFiniteQueryParams(t *testing.T) {
	coord := newTestCoordinator(t, "")
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	// Seed data so a wrongly-admitted value would reach the view math.
	if status, res := postShipment(t, srv.URL, shipEnvelope(t, "w", 1, shuffled(0, 1_000, 1))); status != http.StatusOK {
		t.Fatalf("seed shipment: %d %+v", status, res)
	}

	for _, path := range []string{
		"/quantile?phi=NaN",
		"/quantile?phi=Inf",
		"/quantile?phi=-Inf",
		"/quantile?phi=0.5,NaN", // a bad entry poisons the whole list
		"/cdf?v=NaN",
		"/cdf?v=Inf",
		"/cdf?v=-Inf",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d (body %s), want 400", path, resp.StatusCode, body)
		}
	}

	// Finite queries still work after the rejects.
	med := queryQuantiles(t, srv.URL, []float64{0.5})["0.5"]
	if diff := med - 500; diff < -testEps*1_000 || diff > testEps*1_000 {
		t.Errorf("median %v too far from 500 after rejected queries", med)
	}
}
