package agg

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"time"

	"repro/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Config configures an aggregation-tier node.
type Config struct {
	// ID identifies this node to its parent; (ID, epoch) is the parent's
	// dedup key, so it must be unique among the parent's children and
	// stable across restarts (a restarted aggregator resumes its epoch
	// sequence from its checkpoint).
	ID string

	// Level is this node's tier, counted as hops below the root; it must
	// be ≥ 1 (0 is the root coordinator, which is not an aggregator).
	// Default 1: the tier directly below the root. Checkpoints are stamped
	// with the level and refuse to restore across tiers.
	Level int

	// Eps and Delta are the per-node guarantee parameters — the PerLevelEps
	// split of the root target, NOT the root target itself. Every node in
	// one tree must share them (the compatibility rule applies per hop).
	Eps, Delta float64

	// Engine names the sketch engine this node merges and ships ("mrl99",
	// "kll" or "gk"; empty means mrl99). The whole tree must run one
	// engine: mismatched shipments are refused permanently at every hop.
	Engine string

	// ParentURL is the parent's base URL. Required unless a Transport is
	// supplied.
	ParentURL string

	// Transport delivers envelopes to the parent; nil builds an
	// HTTPTransport from ParentURL, Client and RequestTimeout.
	Transport cluster.Transport

	// Clock paces ship cycles, checkpoints and backoff; nil means the
	// system clock. The sim package injects a virtual clock here.
	Clock cluster.Clock

	// ShipInterval is how often Run cuts and ships the merged window
	// upstream (default 5s).
	ShipInterval time.Duration

	// RequestTimeout bounds one upstream shipment POST (default 10s).
	RequestTimeout time.Duration

	// MaxRetries, BackoffBase, BackoffMax and MaxPending shape the
	// upstream retry/pending policy, with the same defaults as
	// cluster.WorkerConfig.
	MaxRetries              int
	BackoffBase, BackoffMax time.Duration
	MaxPending              int

	// Seed drives the node's merge sampling and retry jitter
	// deterministically; 0 derives a seed from ID.
	Seed uint64

	// CheckpointPath, when non-empty, persists the node's state (merge
	// state, dedup table, upstream ship queue) and restores it at
	// construction, exactly like the root coordinator's checkpoint.
	CheckpointPath string

	// CheckpointInterval is how often Run checkpoints (default 30s).
	CheckpointInterval time.Duration

	// MaxBodyBytes bounds a child shipment POST body (default 8 MiB).
	MaxBodyBytes int64

	// Client issues upstream POSTs when Transport is nil.
	Client *http.Client

	// BinaryShip makes the default upstream HTTPTransport send envelopes
	// in the compact binary encoding instead of JSON. Ignored when an
	// explicit Transport is supplied.
	BinaryShip bool

	// Logger receives structured operational logs; nil discards them.
	Logger *slog.Logger

	// Registry receives both metric surfaces — the upstream shipping
	// series (labeled with ID) and the coordinator-side ingest series —
	// and backs GET /metrics. nil builds a private registry.
	Registry *obs.Registry
}

func (cfg *Config) fillDefaults() error {
	if cfg.ID == "" {
		return fmt.Errorf("agg: aggregator needs an ID")
	}
	if cfg.Level == 0 {
		cfg.Level = 1
	}
	if cfg.Level < 1 {
		return fmt.Errorf("agg: level %d invalid; aggregators run at level ≥ 1 (0 is the root)", cfg.Level)
	}
	if cfg.ParentURL == "" && cfg.Transport == nil {
		return fmt.Errorf("agg: aggregator needs a parent URL or a transport")
	}
	if cfg.ShipInterval <= 0 {
		cfg.ShipInterval = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: cfg.RequestTimeout}
	}
	if cfg.Transport == nil {
		cfg.Transport = &cluster.HTTPTransport{
			BaseURL:        cfg.ParentURL,
			Client:         cfg.Client,
			RequestTimeout: cfg.RequestTimeout,
			Binary:         cfg.BinaryShip,
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = cluster.SystemClock()
	}
	if cfg.Seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(cfg.ID))
		cfg.Seed = h.Sum64() | 1
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	// Normalize once so the upstream envelope tag and the coordinator's
	// engine agree.
	var err error
	cfg.Engine, err = engine.Normalize(cfg.Engine)
	return err
}

// Aggregator is one interior node of a multi-level merge tree: a
// cluster.Coordinator toward its children (it accepts /v1/ship envelopes,
// deduplicates and merges them through the Section 6 collapse path) and a
// cluster.Shipper toward its parent (it periodically cuts the merged
// window into an epoch and ships it upstream with retry, backoff and a
// bounded pending queue). Both halves persist into one checkpoint file, so
// a crashed aggregator restarts with its dedup table, merged residue and
// undelivered epochs intact.
type Aggregator struct {
	cfg   Config
	coord *cluster.Coordinator
	ship  *cluster.Shipper
	mux   *http.ServeMux
	start time.Time
}

// shipperExtra checkpoints the upstream Shipper queue inside the
// coordinator's checkpoint file, keeping the two halves crash-consistent.
type shipperExtra struct{ s *cluster.Shipper }

func (e shipperExtra) Save() (json.RawMessage, error) { return json.Marshal(e.s.Snapshot()) }

func (e shipperExtra) Load(raw json.RawMessage) error {
	var st cluster.ShipperState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("agg: ship queue state: %w", err)
	}
	e.s.Restore(st)
	return nil
}

// New builds an aggregator, restoring state from cfg.CheckpointPath if a
// checkpoint exists there.
func New(cfg Config) (*Aggregator, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	// The shipper must exist before the coordinator: the coordinator's
	// constructor restores the checkpoint, which loads the ship queue.
	ship, err := cluster.NewShipper(cluster.ShipperConfig{
		ID:          cfg.ID,
		Engine:      cfg.Engine,
		Transport:   cfg.Transport,
		Clock:       cfg.Clock,
		MaxRetries:  cfg.MaxRetries,
		BackoffBase: cfg.BackoffBase,
		BackoffMax:  cfg.BackoffMax,
		MaxPending:  cfg.MaxPending,
		Seed:        cfg.Seed,
		Logger:      cfg.Logger,
		Registry:    cfg.Registry,
	})
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Eps:                cfg.Eps,
		Delta:              cfg.Delta,
		Engine:             cfg.Engine,
		Seed:               cfg.Seed,
		Level:              cfg.Level,
		CheckpointExtra:    shipperExtra{ship},
		CheckpointPath:     cfg.CheckpointPath,
		CheckpointInterval: cfg.CheckpointInterval,
		MaxBodyBytes:       cfg.MaxBodyBytes,
		Clock:              cfg.Clock,
		Logger:             cfg.Logger,
		Registry:           cfg.Registry,
	})
	if err != nil {
		return nil, err
	}
	a := &Aggregator{cfg: cfg, coord: coord, ship: ship, start: cfg.Clock.Now()}
	a.mux = http.NewServeMux()
	a.mux.Handle("/", coord.Handler())
	a.mux.HandleFunc("GET /stats", a.handleStats) // aggregator-flavored stats shadow the coordinator's
	return a, nil
}

// Handler returns the node's HTTP handler: the full coordinator surface
// (/v1/ship, /quantile, /cdf, /histogram, /healthz, /metrics) with an
// aggregator-flavored GET /stats.
func (a *Aggregator) Handler() http.Handler { return a.mux }

// Registry returns the registry carrying both metric surfaces.
func (a *Aggregator) Registry() *obs.Registry { return a.cfg.Registry }

// Ingest validates a child envelope and merges it, exactly as a root
// coordinator would. Exposed for in-process transports (the sim package).
func (a *Aggregator) Ingest(env cluster.Envelope) (int, cluster.ShipResult) {
	return a.coord.Ingest(env)
}

// Count returns the element count of the current (un-shipped) window.
func (a *Aggregator) Count() uint64 { return a.coord.Count() }

// Stats returns the upstream shipping counters.
func (a *Aggregator) Stats() cluster.WorkerStats { return a.ship.Stats() }

// CheckpointNow persists both halves of the node's state.
func (a *Aggregator) CheckpointNow() error { return a.coord.CheckpointNow() }

// ShipOnce cuts the merged window into an epoch (if it holds data) and
// attempts to deliver every pending epoch upstream, oldest first.
func (a *Aggregator) ShipOnce(ctx context.Context) error {
	return a.ship.ShipCycle(ctx, a.cfg.Eps, a.cfg.Delta, a.coord.ShipAndReset)
}

// Run ships on cfg.ShipInterval and checkpoints on cfg.CheckpointInterval
// until ctx is cancelled; on the way out it makes one final drain attempt
// and then writes a final checkpoint capturing the post-drain state.
func (a *Aggregator) Run(ctx context.Context) {
	coordCtx, stopCoord := context.WithCancel(context.WithoutCancel(ctx))
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.coord.Run(coordCtx)
	}()
	for {
		if err := a.cfg.Clock.Sleep(ctx, a.cfg.ShipInterval); err != nil {
			drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), a.cfg.RequestTimeout)
			if err := a.ShipOnce(drainCtx); err != nil {
				a.cfg.Logger.Warn("final drain failed", "aggregator", a.cfg.ID, "err", err.Error())
			}
			cancel()
			stopCoord() // coordinator writes its final checkpoint post-drain
			<-done
			return
		}
		if err := a.ShipOnce(ctx); err != nil && ctx.Err() == nil {
			a.cfg.Logger.Warn("ship cycle incomplete", "aggregator", a.cfg.ID, "err", err.Error())
		}
	}
}

func (a *Aggregator) handleStats(w http.ResponseWriter, r *http.Request) {
	s := a.coord.Summarize()
	ship := a.ship.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"role":            "aggregator",
		"engine":          s.Engine,
		"id":              a.cfg.ID,
		"level":           a.cfg.Level,
		"parent":          a.cfg.ParentURL,
		"count":           s.Count,
		"memory_elements": s.MemoryElements,
		"merge_height":    s.MergeHeight,
		"children":        s.Children,
		"eps":             a.cfg.Eps,
		"delta":           a.cfg.Delta,
		"layout":          map[string]int{"b": s.B, "k": s.K},
		"ship": map[string]any{
			"epoch":   ship.Epoch,
			"shipped": ship.Shipped,
			"retries": ship.Retries,
			"dropped": ship.Dropped,
			"pending": ship.Pending,
		},
		"uptime_seconds": a.cfg.Clock.Now().Sub(a.start).Seconds(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
