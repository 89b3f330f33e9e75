// Command quantiled serves streaming quantiles over HTTP. It runs in four
// roles:
//
//   - standalone (default): the original sidecar — accept numbers, answer
//     percentile, CDF and histogram queries with the paper's memory
//     guarantees.
//   - worker: the same ingest surface, plus a Section 6 shipping loop that
//     periodically finalizes the current window and POSTs it to a
//     coordinator, with retries, backoff and an undelivered-epoch queue.
//   - coordinator: accepts worker shipments on POST /v1/ship, deduplicates
//     retransmissions, merges through the paper's collapse tree, answers
//     aggregate queries, and checkpoints its state to disk for crash
//     recovery.
//   - aggregator: a mid-tier node that is both — a coordinator toward its
//     children (same /v1/ship surface and dedup) and a worker toward its
//     parent (-parent), periodically cutting its merged window and shipping
//     it upstream. -level states how many hops below the root it sits.
//     Every node in one tree must run the same ε and δ; for a tree of
//     height h, give each node the per-level budget ε_root/h (see
//     cluster/agg.PerLevelEps and DESIGN.md).
//
// Standalone:
//
//	quantiled -addr :8080 -eps 0.01 -delta 1e-4
//	curl -d "$(seq 1 100000)" localhost:8080/add
//	curl 'localhost:8080/quantile?phi=0.5,0.99'
//
// mrl99 ingest roles (standalone and worker) also run the multi-tenant
// keyed store: POST /v1/ingest/keyed routes binary slabs to per-key
// sketches and `key=` on /quantile//cdf queries them. -keys-max bounds the
// resident keys (LRU eviction beyond it), -key-ttl expires idle keys (a
// background sweep reclaims them), and -key-shards sets the lock striping:
//
//	quantiled -addr :8080 -keys-max 100000 -key-ttl 15m
//
// A fleet:
//
//	quantiled -role coordinator -addr :9090 -checkpoint /var/lib/quantiled.ckpt
//	quantiled -role worker -addr :8081 -coordinator http://localhost:9090 -ship-interval 5s
//	quantiled -role worker -addr :8082 -coordinator http://localhost:9090 -ship-interval 5s
//	curl -d "$(seq 1 50000)"      localhost:8081/add
//	curl -d "$(seq 50001 100000)" localhost:8082/add
//	curl 'localhost:9090/quantile?phi=0.5,0.99'   # union of both workers
//	curl  localhost:9090/healthz
//	curl  localhost:9090/metrics
//
// A three-level tree (root ε=0.01 → per-node ε=0.01/3; workers point at
// their ring-assigned aggregator instead of the root):
//
//	quantiled -role coordinator -addr :9090 -eps 0.00333 -delta 1e-4
//	quantiled -role aggregator -addr :9091 -parent http://localhost:9090 -level 1 \
//	    -eps 0.00333 -delta 1e-4 -checkpoint /var/lib/quantiled-a1.ckpt
//	quantiled -role worker -addr :8081 -coordinator http://localhost:9091 \
//	    -eps 0.00333 -delta 1e-4
//
// Observability: every role serves Prometheus metrics on GET /metrics
// (workers expose their shipping counters on the same registry as the
// ingest surface). Logs are structured (-log-format text|json,
// -log-level debug|info|warn|error), and -debug-addr starts a separate
// net/http/pprof listener — separate so profiling endpoints are never
// exposed on the public port:
//
//	quantiled -log-format json -log-level debug -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// All roles serve with read/write/idle timeouts and drain gracefully on
// SIGINT/SIGTERM: workers ship their tail window, the coordinator writes a
// final checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/cluster"
	"repro/cluster/agg"
	"repro/httpapi"
	"repro/internal/engine"
	"repro/internal/obs"
)

type config struct {
	addr   string
	eps    float64
	delta  float64
	shards int
	seed   uint64
	engine string

	keysMax      int
	keyTTL       time.Duration
	keyShards    int
	window       time.Duration
	windowEpochs int

	role           string
	coordinatorURL string
	workerID       string
	shipInterval   time.Duration
	ingestFormat   string

	parentURL string
	level     int

	checkpoint         string
	checkpointInterval time.Duration

	maxBodyBytes int64

	logLevel  string
	logFormat string
	debugAddr string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("quantiled", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.Float64Var(&cfg.eps, "eps", 0.01, "rank-error bound")
	fs.Float64Var(&cfg.delta, "delta", 1e-4, "failure probability")
	fs.IntVar(&cfg.shards, "shards", 0, "concurrency shards (0 = default; mrl99 ingest roles)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "random seed")
	fs.StringVar(&cfg.engine, "engine", "mrl99", "sketch engine: mrl99, kll or gk (every node in one tree must agree)")
	fs.IntVar(&cfg.keysMax, "keys-max", httpapi.DefaultMaxKeys, "keyed-store key cap: distinct keys resident before LRU eviction (mrl99 ingest roles)")
	fs.DurationVar(&cfg.keyTTL, "key-ttl", 0, "evict keys idle longer than this (0 disables; mrl99 ingest roles)")
	fs.IntVar(&cfg.keyShards, "key-shards", 0, "keyed-store lock stripes, a power of two (0 = default; mrl99 ingest roles)")
	fs.DurationVar(&cfg.window, "window", 0, "per-key windowed-query span: window= queries cover up to this much recent history (0 disables; mrl99 ingest roles)")
	fs.IntVar(&cfg.windowEpochs, "window-epochs", 0, "tumbling epochs per window ring (0 = default; requires -window)")
	fs.StringVar(&cfg.role, "role", "standalone", "standalone, worker, coordinator or aggregator")
	fs.StringVar(&cfg.coordinatorURL, "coordinator", "", "coordinator base URL (worker role)")
	fs.StringVar(&cfg.workerID, "worker-id", "", "stable node identity (worker and aggregator roles; default hostname+addr)")
	fs.DurationVar(&cfg.shipInterval, "ship-interval", 5*time.Second, "how often a worker or aggregator ships its window")
	fs.StringVar(&cfg.ingestFormat, "ingest-format", "json", "wire format for shipping ingested windows upstream: json or binary (worker and aggregator roles)")
	fs.StringVar(&cfg.parentURL, "parent", "", "parent base URL (aggregator role)")
	fs.IntVar(&cfg.level, "level", 0, "tier of an aggregator, hops below the root (aggregator role; default 1)")
	fs.StringVar(&cfg.checkpoint, "checkpoint", "", "checkpoint file (coordinator and aggregator roles; empty disables)")
	fs.DurationVar(&cfg.checkpointInterval, "checkpoint-interval", 30*time.Second, "how often a coordinator or aggregator checkpoints")
	fs.Int64Var(&cfg.maxBodyBytes, "max-body-bytes", 0, "request body cap in bytes (0 = default)")
	fs.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug, info, warn or error")
	fs.StringVar(&cfg.logFormat, "log-format", "text", "log format: text or json")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "separate listen address for net/http/pprof (empty disables)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	name, err := engine.Normalize(cfg.engine)
	if err != nil {
		return cfg, err
	}
	cfg.engine = name
	if _, err := obs.ParseLevel(cfg.logLevel); err != nil {
		return cfg, err
	}
	if cfg.logFormat != "text" && cfg.logFormat != "json" {
		return cfg, fmt.Errorf("unknown log format %q (want text or json)", cfg.logFormat)
	}
	switch cfg.role {
	case "standalone", "coordinator":
	case "worker":
		if cfg.coordinatorURL == "" {
			return cfg, fmt.Errorf("worker role requires -coordinator URL")
		}
		defaultNodeID(&cfg)
	case "aggregator":
		if cfg.parentURL == "" {
			return cfg, fmt.Errorf("aggregator role requires -parent URL")
		}
		if cfg.level == 0 {
			cfg.level = 1
		}
		if cfg.level < 1 {
			return cfg, fmt.Errorf("-level %d invalid: aggregators sit at level ≥ 1 (level 0 is the root coordinator)", cfg.level)
		}
		defaultNodeID(&cfg)
	default:
		return cfg, fmt.Errorf("unknown role %q (want standalone, worker, coordinator or aggregator)", cfg.role)
	}
	// Cross-role flags that would otherwise be silently ignored.
	if cfg.role != "aggregator" {
		if cfg.parentURL != "" {
			return cfg, fmt.Errorf("-parent is only meaningful with -role aggregator (role is %q)", cfg.role)
		}
		if cfg.level != 0 {
			return cfg, fmt.Errorf("-level is only meaningful with -role aggregator (role is %q)", cfg.role)
		}
	}
	if cfg.role == "aggregator" && cfg.coordinatorURL != "" {
		return cfg, fmt.Errorf("aggregators ship to -parent, not -coordinator; drop -coordinator or use -role worker")
	}
	if cfg.ingestFormat != "json" && cfg.ingestFormat != "binary" {
		return cfg, fmt.Errorf("unknown ingest format %q (want json or binary)", cfg.ingestFormat)
	}
	if cfg.ingestFormat == "binary" && cfg.role != "worker" && cfg.role != "aggregator" {
		return cfg, fmt.Errorf("-ingest-format is only meaningful for roles that ship upstream (role is %q)", cfg.role)
	}
	// Sharding and the keyed store live on the mrl99 ingest surface
	// (standalone and worker roles); reject explicit flags for them
	// anywhere they would be silently ignored.
	mrl99FlagSet := ""
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "shards", "keys-max", "key-ttl", "key-shards", "window", "window-epochs":
			mrl99FlagSet = "-" + f.Name
		}
	})
	if mrl99FlagSet != "" {
		if cfg.role != "standalone" && cfg.role != "worker" {
			return cfg, fmt.Errorf("%s is only meaningful for roles with an ingest surface (role is %q)", mrl99FlagSet, cfg.role)
		}
		if cfg.engine != engine.MRL99 {
			return cfg, fmt.Errorf("%s requires -engine mrl99 (kll and gk servers are neither sharded nor keyed)", mrl99FlagSet)
		}
	}
	if cfg.shards < 0 {
		return cfg, fmt.Errorf("-shards %d invalid: want a positive shard count (or 0 for the default)", cfg.shards)
	}
	if cfg.keysMax < 1 {
		return cfg, fmt.Errorf("-keys-max %d invalid: the keyed store needs a positive key cap", cfg.keysMax)
	}
	if cfg.keyTTL < 0 {
		return cfg, fmt.Errorf("-key-ttl %s invalid: want a non-negative duration", cfg.keyTTL)
	}
	if cfg.keyShards < 0 || (cfg.keyShards != 0 && cfg.keyShards&(cfg.keyShards-1) != 0) {
		return cfg, fmt.Errorf("-key-shards %d invalid: want a power of two (or 0 for the default)", cfg.keyShards)
	}
	if cfg.window < 0 {
		return cfg, fmt.Errorf("-window %s invalid: want a non-negative duration", cfg.window)
	}
	if cfg.windowEpochs < 0 {
		return cfg, fmt.Errorf("-window-epochs %d invalid: want a non-negative epoch count", cfg.windowEpochs)
	}
	if cfg.windowEpochs > 0 && cfg.window == 0 {
		return cfg, fmt.Errorf("-window-epochs %d without -window: the epoch count divides the window span", cfg.windowEpochs)
	}
	return cfg, nil
}

// defaultNodeID fills workerID for the roles that identify themselves to a
// parent; (id, epoch) is the parent's dedup key, so it should be stable.
func defaultNodeID(cfg *config) {
	if cfg.workerID != "" {
		return
	}
	host, err := os.Hostname()
	if err != nil {
		host = cfg.role
	}
	cfg.workerID = host + cfg.addr
}

// service bundles a role's HTTP surface with its background loop. run
// blocks until ctx is cancelled and returns only after the role's final
// act — a worker's tail shipment, a coordinator's last checkpoint.
type service struct {
	handler http.Handler
	run     func(ctx context.Context)
	banner  string
	// ingest is the role's httpapi surface, set by every role that owns
	// one. newService keys housekeeping (the keyed TTL sweeper) off this
	// field after the role switch, so a role can't forget to wire it —
	// the PR 10 audit found the sweep wrapped per-case, which every
	// ingest case happened to do, but nothing enforced it.
	ingest *httpapi.Server
}

// newIngestServer builds the ingest-surface HTTP server for the selected
// engine, with the keyed store sized from the flags where the engine has
// one (mrl99).
func newIngestServer(cfg config, logger *slog.Logger) (*httpapi.Server, error) {
	ing, err := engine.NewIngest(cfg.engine, cfg.eps, cfg.delta, cfg.shards, cfg.seed)
	if err != nil {
		return nil, err
	}
	srv, err := httpapi.NewEngine(ing)
	if err == nil && srv.Keyed() != nil {
		err = srv.SetKeyed(httpapi.KeyedConfig{
			MaxKeys:      cfg.keysMax,
			TTL:          cfg.keyTTL,
			Shards:       cfg.keyShards,
			Seed:         cfg.seed,
			Window:       cfg.window,
			WindowEpochs: cfg.windowEpochs,
		})
	}
	if err != nil {
		return nil, err
	}
	srv.SetMaxBodyBytes(cfg.maxBodyBytes)
	srv.SetLogger(logger)
	return srv, nil
}

// keyedBanner describes the ingest surface's keyed store, if it has one.
func keyedBanner(cfg config, srv *httpapi.Server) string {
	if srv.Keyed() == nil {
		return ""
	}
	b := fmt.Sprintf(", keyed: max %d keys", cfg.keysMax)
	if cfg.keyTTL > 0 {
		b += fmt.Sprintf(" ttl %s", cfg.keyTTL)
	}
	if k := srv.Keyed(); k.Windowed() {
		b += fmt.Sprintf(" window %s (%d×%s)", k.WindowSpan(), k.WindowEpochs(), k.WindowWidth())
	}
	return b
}

// runWithKeyedSweep wraps a role's background loop with a housekeeping
// ticker that evicts idle keys, so TTL-bounded stores release memory even
// when the expired keys are never touched again. Applied centrally by
// newService to any service with an ingest surface — individual role
// cases must not wrap their own run.
func runWithKeyedSweep(run func(ctx context.Context), cfg config, srv *httpapi.Server, logger *slog.Logger) func(ctx context.Context) {
	if srv == nil || srv.Keyed() == nil || cfg.keyTTL <= 0 {
		return run
	}
	interval := max(min(cfg.keyTTL/2, time.Minute), time.Second)
	return func(ctx context.Context) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if n := srv.Keyed().SweepExpired(); n > 0 {
						logger.Debug("keyed TTL sweep", "evicted", n)
					}
				}
			}
		}()
		run(ctx)
		<-done
	}
}

func newService(cfg config, logger *slog.Logger) (*service, error) {
	svc, err := newRoleService(cfg, logger)
	if err != nil {
		return nil, err
	}
	// Housekeeping that every ingest-surface role needs, applied once so
	// role cases can't drift: the keyed TTL sweeper keeps idle keys from
	// pinning memory when no request ever touches them again.
	svc.run = runWithKeyedSweep(svc.run, cfg, svc.ingest, logger)
	return svc, nil
}

func newRoleService(cfg config, logger *slog.Logger) (*service, error) {
	switch cfg.role {
	case "standalone":
		srv, err := newIngestServer(cfg, logger)
		if err != nil {
			return nil, err
		}
		return &service{
			handler: srv.Handler(),
			run:     func(ctx context.Context) { <-ctx.Done() },
			ingest:  srv,
			banner: fmt.Sprintf("standalone (engine=%s eps=%g delta=%g%s)",
				cfg.engine, cfg.eps, cfg.delta, keyedBanner(cfg, srv)),
		}, nil

	case "worker":
		srv, err := newIngestServer(cfg, logger)
		if err != nil {
			return nil, err
		}
		wcfg := cluster.WorkerConfig{
			ID:             cfg.workerID,
			CoordinatorURL: cfg.coordinatorURL,
			ShipInterval:   cfg.shipInterval,
			BinaryShip:     cfg.ingestFormat == "binary",
			Logger:         logger,
			// Shipping counters land on the ingest surface's registry, so
			// the worker's GET /metrics covers both.
			Registry: srv.Registry(),
		}
		w, err := cluster.NewWorker(srv.Ingest(), wcfg)
		if err != nil {
			return nil, err
		}
		return &service{
			handler: srv.Handler(),
			run:     w.Run,
			ingest:  srv,
			banner: fmt.Sprintf("worker %q shipping %s to %s every %s (engine=%s eps=%g delta=%g%s)",
				cfg.workerID, cfg.ingestFormat, cfg.coordinatorURL, cfg.shipInterval, cfg.engine, cfg.eps, cfg.delta,
				keyedBanner(cfg, srv)),
		}, nil

	case "coordinator":
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Eps:                cfg.eps,
			Delta:              cfg.delta,
			Engine:             cfg.engine,
			Seed:               cfg.seed,
			CheckpointPath:     cfg.checkpoint,
			CheckpointInterval: cfg.checkpointInterval,
			MaxBodyBytes:       cfg.maxBodyBytes,
			Logger:             logger,
		})
		if err != nil {
			return nil, err
		}
		banner := fmt.Sprintf("coordinator (engine=%s eps=%g delta=%g", cfg.engine, cfg.eps, cfg.delta)
		if cfg.checkpoint != "" {
			banner += fmt.Sprintf(", checkpointing to %s every %s", cfg.checkpoint, cfg.checkpointInterval)
		}
		return &service{handler: coord.Handler(), run: coord.Run, banner: banner + ")"}, nil

	case "aggregator":
		a, err := agg.New(agg.Config{
			ID:                 cfg.workerID,
			Level:              cfg.level,
			Eps:                cfg.eps,
			Delta:              cfg.delta,
			Engine:             cfg.engine,
			ParentURL:          cfg.parentURL,
			ShipInterval:       cfg.shipInterval,
			BinaryShip:         cfg.ingestFormat == "binary",
			Seed:               cfg.seed,
			CheckpointPath:     cfg.checkpoint,
			CheckpointInterval: cfg.checkpointInterval,
			MaxBodyBytes:       cfg.maxBodyBytes,
			Logger:             logger,
		})
		if err != nil {
			return nil, err
		}
		banner := fmt.Sprintf("aggregator %q level %d shipping %s to %s every %s (engine=%s eps=%g delta=%g",
			cfg.workerID, cfg.level, cfg.ingestFormat, cfg.parentURL, cfg.shipInterval, cfg.engine, cfg.eps, cfg.delta)
		if cfg.checkpoint != "" {
			banner += fmt.Sprintf(", checkpointing to %s every %s", cfg.checkpoint, cfg.checkpointInterval)
		}
		return &service{handler: a.Handler(), run: a.Run, banner: banner + ")"}, nil
	}
	return nil, fmt.Errorf("unknown role %q", cfg.role)
}

// debugMux returns the pprof surface served on -debug-addr. Handlers are
// registered explicitly instead of importing net/http/pprof for its
// DefaultServeMux side effect, so nothing profiling-related ever leaks
// onto the public mux.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startDebugServer serves pprof on addr until stop is called, returning
// the bound address (useful with a ":0" addr).
func startDebugServer(addr string, logger *slog.Logger) (stop func(), boundAddr string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("debug listener: %w", err)
	}
	ds := &http.Server{Handler: debugMux(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := ds.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Warn("debug server stopped", "err", err.Error())
		}
	}()
	logger.Info("pprof debug server listening", "addr", ln.Addr().String())
	return func() { _ = ds.Close() }, ln.Addr().String(), nil
}

// serve runs the hardened HTTP server until ctx is cancelled, then drains:
// stop accepting, finish in-flight requests, and only then cancel the
// background loop so a coordinator's final checkpoint includes every
// acknowledged shipment.
func serve(ctx context.Context, cfg config, svc *service, logger *slog.Logger) error {
	hs := &http.Server{
		Addr:              cfg.addr,
		Handler:           svc.handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       5 * time.Minute,
	}

	if cfg.debugAddr != "" {
		stopDebug, _, err := startDebugServer(cfg.debugAddr, logger)
		if err != nil {
			return err
		}
		defer stopDebug()
	}

	bgCtx, bgCancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		svc.run(bgCtx)
	}()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("quantiled listening", "role", cfg.role, "addr", cfg.addr)

	var serveErr error
	select {
	case serveErr = <-errc:
		// Listener failed; fall through to stop the background loop.
	case <-ctx.Done():
		logger.Info("signal received, draining")
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		if err := hs.Shutdown(shCtx); err != nil {
			logger.Warn("shutdown", "err", err.Error())
		}
		cancel()
	}
	bgCancel()
	wg.Wait()
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "quantiled: %v\n", err)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, cfg.logFormat, cfg.logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "quantiled: %v\n", err)
		os.Exit(2)
	}
	svc, err := newService(cfg, logger)
	if err != nil {
		logger.Error("startup failed", "err", err.Error())
		os.Exit(1)
	}
	logger.Info("starting", "banner", svc.banner)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, cfg, svc, logger); err != nil {
		logger.Error("serve failed", "err", err.Error())
		os.Exit(1)
	}
}
