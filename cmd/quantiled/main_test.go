package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseFlagsRoles(t *testing.T) {
	if _, err := parseFlags([]string{"-role", "standalone"}, io.Discard); err != nil {
		t.Errorf("standalone: %v", err)
	}
	if _, err := parseFlags([]string{"-role", "coordinator", "-checkpoint", "/tmp/x.ckpt"}, io.Discard); err != nil {
		t.Errorf("coordinator: %v", err)
	}
	cfg, err := parseFlags([]string{"-role", "worker", "-coordinator", "http://localhost:9090", "-addr", ":8081"}, io.Discard)
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if cfg.workerID == "" {
		t.Error("worker id not defaulted")
	}
	if _, err := parseFlags([]string{"-role", "worker"}, io.Discard); err == nil {
		t.Error("worker without -coordinator accepted")
	}
	if _, err := parseFlags([]string{"-role", "replicant"}, io.Discard); err == nil {
		t.Error("unknown role accepted")
	}
}

// TestParseFlagsShards: -shards sizes the mrl99 ingest sketch only, so an
// explicit value is refused wherever it would be silently ignored, and a
// negative count is refused rather than turned into the default.
func TestParseFlagsShards(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "4"},
		{"-shards", "0"},
		{"-role", "worker", "-coordinator", "http://c", "-shards", "2"},
	} {
		if _, err := parseFlags(args, io.Discard); err != nil {
			t.Errorf("parseFlags(%v): %v", args, err)
		}
	}
	for _, args := range [][]string{
		{"-shards", "-1"},
		{"-engine", "kll", "-shards", "4"},
		{"-engine", "gk", "-shards", "4"},
		{"-role", "coordinator", "-shards", "4"},
		{"-role", "aggregator", "-parent", "http://p", "-shards", "4"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

func TestParseFlagsAggregator(t *testing.T) {
	cfg, err := parseFlags([]string{"-role", "aggregator", "-parent", "http://localhost:9090", "-addr", ":9091"}, io.Discard)
	if err != nil {
		t.Fatalf("aggregator: %v", err)
	}
	if cfg.level != 1 {
		t.Errorf("level not defaulted to 1: %d", cfg.level)
	}
	if cfg.workerID == "" {
		t.Error("aggregator id not defaulted")
	}
	if cfg2, err := parseFlags([]string{"-role", "aggregator", "-parent", "http://p", "-level", "2"}, io.Discard); err != nil || cfg2.level != 2 {
		t.Errorf("explicit -level 2: cfg=%+v err=%v", cfg2, err)
	}
	for _, bad := range [][]string{
		{"-role", "aggregator"}, // no parent
		{"-role", "aggregator", "-parent", "http://p", "-level", "-1"},             // level below the tier
		{"-role", "aggregator", "-parent", "http://p", "-coordinator", "http://c"}, // wrong upstream flag
		{"-role", "worker", "-coordinator", "http://c", "-parent", "http://p"},     // -parent outside aggregator role
		{"-role", "coordinator", "-level", "1"},                                    // -level outside aggregator role
		{"-role", "standalone", "-parent", "http://p"},
	} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("args %v accepted", bad)
		}
	}
}

func TestParseFlagsIngestFormat(t *testing.T) {
	cfg, err := parseFlags([]string{"-role", "worker", "-coordinator", "http://c", "-ingest-format", "binary"}, io.Discard)
	if err != nil {
		t.Fatalf("binary worker: %v", err)
	}
	if cfg.ingestFormat != "binary" {
		t.Errorf("ingest format not captured: %+v", cfg)
	}
	if _, err := parseFlags([]string{"-role", "aggregator", "-parent", "http://p", "-ingest-format", "binary"}, io.Discard); err != nil {
		t.Errorf("binary aggregator: %v", err)
	}
	for _, bad := range [][]string{
		{"-role", "worker", "-coordinator", "http://c", "-ingest-format", "protobuf"}, // unknown format
		{"-role", "standalone", "-ingest-format", "binary"},                           // nothing ships upstream
		{"-role", "coordinator", "-ingest-format", "binary"},                          // the root only receives
	} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("args %v accepted", bad)
		}
	}
}

func TestParseFlagsLogging(t *testing.T) {
	cfg, err := parseFlags([]string{"-log-level", "debug", "-log-format", "json", "-debug-addr", "127.0.0.1:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.logLevel != "debug" || cfg.logFormat != "json" || cfg.debugAddr != "127.0.0.1:0" {
		t.Errorf("logging flags not captured: %+v", cfg)
	}
	if _, err := parseFlags([]string{"-log-level", "loud"}, io.Discard); err == nil {
		t.Error("unknown log level accepted")
	}
	if _, err := parseFlags([]string{"-log-format", "yaml"}, io.Discard); err == nil {
		t.Error("unknown log format accepted")
	}
}

// TestWorkerCoordinatorServices wires a worker service to a coordinator
// service the way main does, exercising the full flag-to-fleet path.
func TestWorkerCoordinatorServices(t *testing.T) {
	ccfg, err := parseFlags([]string{"-role", "coordinator", "-eps", "0.02", "-delta", "1e-3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	csvc, err := newService(ccfg, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(csvc.handler)
	defer cs.Close()

	wcfg, err := parseFlags([]string{
		"-role", "worker", "-coordinator", cs.URL,
		"-worker-id", "w-test", "-eps", "0.02", "-delta", "1e-3",
		"-ship-interval", "20ms",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	wsvc, err := newService(wcfg, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	ws := httptest.NewServer(wsvc.handler)
	defer ws.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		wsvc.run(ctx)
		close(done)
	}()

	var feed strings.Builder
	for i := 0; i < 10_000; i++ {
		feed.WriteString("1 ")
	}
	resp, err := http.Post(ws.URL+"/add", "text/plain", strings.NewReader(feed.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Cancel triggers the worker's final drain; everything must arrive.
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("worker loop did not stop")
	}
	resp, err = http.Get(cs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"count":10000`) {
		t.Errorf("coordinator healthz after drain: %s", body)
	}

	// The worker's shipping counters share the ingest surface's registry.
	resp, err = http.Get(ws.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`http_requests_total{endpoint="add"} 1`,
		`cluster_ship_epochs_shipped_total{worker="w-test"}`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("worker /metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestThreeLevelServices chains worker → aggregator → coordinator the way
// main would wire a height-3 tree, and checks every element fed at the leaf
// reaches the root through the mid-tier after the drains.
func TestThreeLevelServices(t *testing.T) {
	ccfg, err := parseFlags([]string{"-role", "coordinator", "-eps", "0.01", "-delta", "1e-3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	csvc, err := newService(ccfg, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(csvc.handler)
	defer cs.Close()

	acfg, err := parseFlags([]string{
		"-role", "aggregator", "-parent", cs.URL, "-level", "1",
		"-worker-id", "a-test", "-eps", "0.01", "-delta", "1e-3",
		"-ship-interval", "20ms",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	asvc, err := newService(acfg, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	as := httptest.NewServer(asvc.handler)
	defer as.Close()

	wcfg, err := parseFlags([]string{
		"-role", "worker", "-coordinator", as.URL,
		"-worker-id", "w-test", "-eps", "0.01", "-delta", "1e-3",
		"-ship-interval", "20ms",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	wsvc, err := newService(wcfg, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	ws := httptest.NewServer(wsvc.handler)
	defer ws.Close()

	wctx, wcancel := context.WithCancel(context.Background())
	actx, acancel := context.WithCancel(context.Background())
	wdone, adone := make(chan struct{}), make(chan struct{})
	go func() { asvc.run(actx); close(adone) }()
	go func() { wsvc.run(wctx); close(wdone) }()

	var feed strings.Builder
	for i := 0; i < 5_000; i++ {
		feed.WriteString("2 ")
	}
	resp, err := http.Post(ws.URL+"/add", "text/plain", strings.NewReader(feed.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Leaf drains into the mid-tier, then the mid-tier drains into the root.
	wcancel()
	select {
	case <-wdone:
	case <-time.After(10 * time.Second):
		t.Fatal("worker loop did not stop")
	}
	acancel()
	select {
	case <-adone:
	case <-time.After(10 * time.Second):
		t.Fatal("aggregator loop did not stop")
	}

	resp, err = http.Get(cs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"count":5000`) {
		t.Errorf("root healthz after two-stage drain: %s", body)
	}

	// The mid-tier's /stats declares its role, and /metrics carries both
	// its coordinator-side and shipping-side series.
	resp, err = http.Get(as.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"role":"aggregator"`, `"level":1`, `"id":"a-test"`} {
		if !strings.Contains(string(stats), want) {
			t.Errorf("aggregator /stats missing %s:\n%s", want, stats)
		}
	}
	resp, err = http.Get(as.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`cluster_ship_epochs_shipped_total{worker="a-test"}`,
		"cluster_shipments_accepted_total",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("aggregator /metrics missing %q:\n%s", want, prom)
		}
	}
}

func TestServeStopsOnCancel(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := newService(cfg, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, cfg, svc, obs.Discard()) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not return after cancellation")
	}
}

// TestDebugServerServesPprof pins the -debug-addr surface: the profiling
// index and the symbol endpoint must answer on the side listener.
func TestDebugServerServesPprof(t *testing.T) {
	stop, addr, err := startDebugServer("127.0.0.1:0", obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/symbol"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d (%s)", path, resp.StatusCode, body)
		}
	}
	// The profiling surface must NOT be on the public mux of any role.
	cfg, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := newService(cfg, obs.Discard())
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	svc.handler.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code == http.StatusOK {
		t.Error("pprof index answered on the public mux")
	}
}
