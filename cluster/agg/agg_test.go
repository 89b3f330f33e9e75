package agg

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	quantile "repro"
	"repro/cluster"
	"repro/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// fixedClock pins time so uptime and latency observations are exact
// constants (mirrors the cluster package's golden-test clock).
type fixedClock struct{ t time.Time }

func (c *fixedClock) Now() time.Time { return c.t }
func (c *fixedClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.t = c.t.Add(d)
	return nil
}

// memTransport is an in-process parent: it records envelopes and can be
// toggled into a transient-failure mode.
type memTransport struct {
	mu   sync.Mutex
	fail bool
	got  []cluster.Envelope
}

func (m *memTransport) Ship(_ context.Context, env cluster.Envelope) (cluster.ShipResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail {
		return cluster.ShipResult{}, errors.New("memTransport: parent down")
	}
	m.got = append(m.got, env)
	return cluster.ShipResult{Status: cluster.StatusAccepted}, nil
}

func (m *memTransport) setFail(v bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fail = v
}

func (m *memTransport) envelopes() []cluster.Envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]cluster.Envelope(nil), m.got...)
}

// childEnvelope builds a deterministic worker shipment.
func childEnvelope(t *testing.T, id string, epoch uint64, eps, delta float64, data []float64, seed uint64) cluster.Envelope {
	t.Helper()
	sk, err := quantile.NewConcurrent[float64](eps, delta, 1, quantile.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	sk.AddAll(data)
	blob, n, err := sk.ShipAndReset(quantile.Float64Codec())
	if err != nil {
		t.Fatal(err)
	}
	return cluster.Envelope{Worker: id, Epoch: epoch, Eps: eps, Delta: delta, Count: n, Blob: blob}
}

func TestConfigValidation(t *testing.T) {
	mt := &memTransport{}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"missing id", Config{Transport: mt, Eps: 0.02, Delta: 1e-3}},
		{"missing parent and transport", Config{ID: "a0", Eps: 0.02, Delta: 1e-3}},
		{"negative level", Config{ID: "a0", Transport: mt, Level: -1, Eps: 0.02, Delta: 1e-3}},
		{"bad eps", Config{ID: "a0", Transport: mt, Eps: 2, Delta: 1e-3}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	a, err := New(Config{ID: "a0", Transport: mt, Eps: 0.02, Delta: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if a.cfg.Level != 1 {
		t.Errorf("level not defaulted to 1: %d", a.cfg.Level)
	}
}

// TestShipsToParentOverHTTP is the end-to-end hop: children ship into the
// aggregator's /v1/ship surface over HTTP, the aggregator cuts and ships
// upstream to a real root coordinator over HTTP, and the root's aggregate
// answers within ε.
func TestShipsToParentOverHTTP(t *testing.T) {
	const eps, delta = 0.02, 1e-3
	root, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Eps: eps, Delta: delta, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(root.Handler())
	defer rs.Close()

	a, err := New(Config{ID: "a0", ParentURL: rs.URL, Eps: eps, Delta: delta, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	as := httptest.NewServer(a.Handler())
	defer as.Close()

	data := stream.Collect(stream.Shuffled(4000, 23))
	child := cluster.HTTPTransport{BaseURL: as.URL}
	for i, id := range []string{"w0", "w1"} {
		env := childEnvelope(t, id, 1, eps, delta, data[i*2000:(i+1)*2000], uint64(300+i))
		res, err := child.Ship(context.Background(), env)
		if err != nil {
			t.Fatalf("child ship %s: %v", id, err)
		}
		if res.Status != cluster.StatusAccepted {
			t.Fatalf("child ship %s: %+v", id, res)
		}
	}
	if got := a.Count(); got != 4000 {
		t.Fatalf("aggregator window count %d, want 4000", got)
	}

	if err := a.ShipOnce(context.Background()); err != nil {
		t.Fatalf("ShipOnce: %v", err)
	}
	if got := root.Count(); got != 4000 {
		t.Fatalf("root count after ship %d, want 4000", got)
	}
	if got := a.Count(); got != 0 {
		t.Fatalf("aggregator window not reset after ship: %d", got)
	}

	// Retransmission from a child is still deduped after the cut: the
	// dedup table survives ShipAndReset.
	dup := childEnvelope(t, "w0", 1, eps, delta, data[:2000], 300)
	if _, res := a.Ingest(dup); res.Status != cluster.StatusDuplicate {
		t.Fatalf("post-cut retransmission: %+v", res)
	}

	// An empty window cuts nothing.
	if err := a.ShipOnce(context.Background()); err != nil {
		t.Fatalf("empty ShipOnce: %v", err)
	}
	if st := a.Stats(); st.Epoch != 1 || st.Shipped != 1 {
		t.Fatalf("stats after empty cycle: %+v", st)
	}

	// The root's answer stays within ε of the truth after the extra hop.
	vals, err := root.Quantiles([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	// data is a shuffled permutation of 1..4000, so rank(v) ≈ v.
	if mid := vals[0]; mid < 4000*(0.5-eps) || mid > 4000*(0.5+eps) {
		t.Errorf("median %g outside ε band", mid)
	}
}

// TestCheckpointRestart crashes an aggregator that is holding an
// undelivered epoch and restarts it from its checkpoint: the merged
// residue, dedup table, epoch counter and pending queue must all survive.
func TestCheckpointRestart(t *testing.T) {
	const eps, delta = 0.02, 1e-3
	path := filepath.Join(t.TempDir(), "agg.ckpt")
	mt := &memTransport{fail: true}
	mkCfg := func() Config {
		return Config{
			ID: "a0", Transport: mt, Eps: eps, Delta: delta, Seed: 7,
			CheckpointPath: path, MaxRetries: -1,
		}
	}
	a1, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	data := stream.Collect(stream.Shuffled(2000, 31))
	env := childEnvelope(t, "w0", 1, eps, delta, data, 77)
	if _, res := a1.Ingest(env); res.Status != cluster.StatusAccepted {
		t.Fatalf("ingest: %+v", res)
	}
	// Parent down: the cut epoch stays pending.
	if err := a1.ShipOnce(context.Background()); err == nil {
		t.Fatal("ShipOnce against a down parent reported success")
	}
	if st := a1.Stats(); st.Epoch != 1 || st.Pending != 1 {
		t.Fatalf("pre-crash stats: %+v", st)
	}
	if err := a1.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	// Crash. Restart from the checkpoint with the parent healthy.
	mt.setFail(false)
	a2, err := New(mkCfg())
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if st := a2.ship.Snapshot(); st.Epoch != 1 || len(st.Pending) != 1 {
		t.Fatalf("ship queue not restored: %+v", st)
	}
	// Dedup table survived: the child's retransmission is recognized.
	if _, res := a2.Ingest(env); res.Status != cluster.StatusDuplicate {
		t.Fatalf("post-restart retransmission: %+v", res)
	}
	if err := a2.ShipOnce(context.Background()); err != nil {
		t.Fatalf("post-restart ShipOnce: %v", err)
	}
	got := mt.envelopes()
	if len(got) != 1 || got[0].Worker != "a0" || got[0].Epoch != 1 || got[0].Count != 2000 {
		t.Fatalf("delivered envelopes: %+v", got)
	}

	// New data after the restart continues the epoch sequence — the parent
	// must never see epoch 1 twice with different contents.
	env2 := childEnvelope(t, "w0", 2, eps, delta, data[:500], 78)
	if _, res := a2.Ingest(env2); res.Status != cluster.StatusAccepted {
		t.Fatalf("ingest epoch 2: %+v", res)
	}
	if err := a2.ShipOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	got = mt.envelopes()
	if len(got) != 2 || got[1].Epoch != 2 {
		t.Fatalf("epoch sequence after restart: %+v", got)
	}
}

// TestCheckpointLevelRefusal: a checkpoint written at one tier must not
// restore into a node configured for another, whatever the engine.
func TestCheckpointLevelRefusal(t *testing.T) {
	for _, eng := range []string{"mrl99", "kll", "gk"} {
		t.Run(eng, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "agg.ckpt")
			mt := &memTransport{}
			a1, err := New(Config{ID: "a0", Transport: mt, Eps: 0.02, Delta: 1e-3, Engine: eng, Level: 1, CheckpointPath: path})
			if err != nil {
				t.Fatal(err)
			}
			if err := a1.CheckpointNow(); err != nil {
				t.Fatal(err)
			}
			_, err = New(Config{ID: "a0", Transport: mt, Eps: 0.02, Delta: 1e-3, Engine: eng, Level: 2, CheckpointPath: path})
			if err == nil {
				t.Fatal("level-2 node restored a level-1 checkpoint")
			}
			if !strings.Contains(err.Error(), "level") {
				t.Fatalf("refusal does not name the level: %v", err)
			}
		})
	}
}

// goldenAggregator pins an aggregator in a fully deterministic state:
// fixed clock, fixed seeds, two child shipments, a retransmission, a
// rejection, and one upstream ship cycle.
func goldenAggregator(t *testing.T) *Aggregator {
	t.Helper()
	clock := &fixedClock{t: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
	a, err := New(Config{
		ID: "a0", Level: 1, Eps: 0.02, Delta: 1e-3, Seed: 5,
		ParentURL: "http://root:9090", Transport: &memTransport{}, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := stream.Collect(stream.Shuffled(4000, 17))
	var dup cluster.Envelope
	for i, id := range []string{"w0", "w1"} {
		env := childEnvelope(t, id, 1, 0.02, 1e-3, data[i*2000:(i+1)*2000], uint64(100+i))
		if status, res := a.Ingest(env); status != 200 || res.Status != cluster.StatusAccepted {
			t.Fatalf("seed shipment %s: status %d %+v", id, status, res)
		}
		dup = env
	}
	if status, res := a.Ingest(dup); status != 200 || res.Status != cluster.StatusDuplicate {
		t.Fatalf("duplicate: status %d %+v", status, res)
	}
	bad := dup
	bad.Eps = 0.05
	if status, _ := a.Ingest(bad); status != 409 {
		t.Fatalf("mismatched eps: status %d, want 409", status)
	}
	if err := a.ShipOnce(context.Background()); err != nil {
		t.Fatalf("ShipOnce: %v", err)
	}
	return a
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestMetricsGolden pins the aggregator's Prometheus exposition: both the
// coordinator-side ingest series and the upstream shipping series (with
// the per-hop cluster_ship_seconds histogram) on one registry.
func TestMetricsGolden(t *testing.T) {
	a := goldenAggregator(t)
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: %d", rec.Code)
	}
	for _, want := range []string{"cluster_ship_seconds", "cluster_shipments_accepted_total"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("exposition missing %s:\n%s", want, rec.Body.String())
		}
	}
	checkGolden(t, "metrics.golden", rec.Body.Bytes())
}

// TestStatsGolden pins the aggregator's /stats JSON schema: role, tier,
// parent, merge summary and shipping counters.
func TestStatsGolden(t *testing.T) {
	a := goldenAggregator(t)
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /stats: %d", rec.Code)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, rec.Body.Bytes(), "", "  "); err != nil {
		t.Fatalf("/stats is not valid JSON: %v", err)
	}
	checkGolden(t, "stats.golden", indented.Bytes())
}

func TestPerLevelEps(t *testing.T) {
	for _, tc := range []struct {
		eps    float64
		height int
		want   float64
	}{
		{0.01, 2, 0.005},
		{0.01, 3, 0.01 / 3},
		{0.001, 3, 0.001 / 3},
		{0.05, 1, 0.05},
	} {
		got, err := PerLevelEps(tc.eps, tc.height)
		if err != nil {
			t.Fatalf("PerLevelEps(%g, %d): %v", tc.eps, tc.height, err)
		}
		if got != tc.want {
			t.Errorf("PerLevelEps(%g, %d) = %g, want %g", tc.eps, tc.height, got, tc.want)
		}
	}
	for _, tc := range []struct {
		eps    float64
		height int
	}{
		{0, 2}, {1, 2}, {-0.01, 2}, {0.01, 0}, {0.01, -3},
	} {
		if _, err := PerLevelEps(tc.eps, tc.height); err == nil {
			t.Errorf("PerLevelEps(%g, %d) accepted", tc.eps, tc.height)
		}
	}
}

// TestRunDrainsOnCancel: cancelling Run performs a final cut-and-ship and
// final checkpoint, so no acknowledged child data is lost on shutdown.
func TestRunDrainsOnCancel(t *testing.T) {
	const eps, delta = 0.02, 1e-3
	path := filepath.Join(t.TempDir(), "agg.ckpt")
	mt := &memTransport{}
	a, err := New(Config{
		ID: "a0", Transport: mt, Eps: eps, Delta: delta, Seed: 3,
		ShipInterval: time.Hour, CheckpointPath: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := childEnvelope(t, "w0", 1, eps, delta, stream.Collect(stream.Shuffled(1000, 41)), 9)
	if _, res := a.Ingest(env); res.Status != cluster.StatusAccepted {
		t.Fatalf("ingest: %+v", res)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { a.Run(ctx); close(done) }()
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not stop")
	}
	got := mt.envelopes()
	if len(got) != 1 || got[0].Count != 1000 {
		t.Fatalf("final drain did not ship the window: %+v", got)
	}
	// The final checkpoint reflects the post-drain state: a restart holds
	// an empty queue at epoch 1.
	a2, err := New(Config{ID: "a0", Transport: mt, Eps: eps, Delta: delta, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if st := a2.ship.Snapshot(); st.Epoch != 1 || len(st.Pending) != 0 {
		t.Fatalf("post-drain checkpoint: %+v", st)
	}
}
