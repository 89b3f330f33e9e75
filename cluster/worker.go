package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	quantile "repro"
	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/obs"
)

// WorkerConfig configures a shipping worker.
type WorkerConfig struct {
	// ID identifies this worker to the coordinator; (ID, epoch) is the
	// deduplication key, so it must be unique per worker and stable across
	// that worker's lifetime.
	ID string

	// CoordinatorURL is the coordinator's base URL, e.g. "http://host:9090".
	// Required unless a Transport is supplied.
	CoordinatorURL string

	// Transport delivers envelopes to the coordinator; nil builds an
	// HTTPTransport from CoordinatorURL, Client and RequestTimeout.
	Transport Transport

	// Clock paces ship cycles and retry backoff; nil means the system
	// clock. The sim package injects a virtual clock here.
	Clock Clock

	// ShipInterval is how often Run cuts and ships an epoch (default 5s).
	ShipInterval time.Duration

	// RequestTimeout bounds one shipment POST (default 10s).
	RequestTimeout time.Duration

	// MaxRetries is how many times a failed delivery is retried within one
	// ship cycle before the epoch is parked for the next cycle (default 5).
	MaxRetries int

	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries (defaults 200ms and 5s); each delay is jittered by a factor
	// in [0.5, 1.5) so a worker fleet does not retry in lockstep.
	BackoffBase, BackoffMax time.Duration

	// MaxPending bounds the undelivered-epoch queue kept across ship
	// cycles while the coordinator is unreachable (default 64); beyond it
	// the oldest epoch is dropped and counted in Stats().Dropped.
	MaxPending int

	// Seed drives the retry jitter deterministically; 0 derives a seed
	// from ID, so distinct workers still jitter apart while any single
	// worker's behavior replays exactly from its configuration.
	Seed uint64

	// Client issues the POSTs when Transport is nil; nil builds one from
	// RequestTimeout.
	Client *http.Client

	// BinaryShip makes the default HTTPTransport send envelopes in the
	// compact binary encoding (ShipContentTypeBinary) instead of JSON.
	// Ignored when an explicit Transport is supplied.
	BinaryShip bool

	// Logger receives structured operational logs; nil discards them.
	Logger *slog.Logger

	// Registry receives the worker's shipping metrics (epochs cut, delivery
	// attempts, retries, drops, backoff time, pending-queue depth), every
	// series labeled with the worker ID so a fleet can share one registry.
	// nil keeps them in a private registry.
	Registry *obs.Registry
}

func (cfg *WorkerConfig) fillDefaults() error {
	if cfg.ID == "" {
		return fmt.Errorf("cluster: worker needs an ID")
	}
	if cfg.CoordinatorURL == "" && cfg.Transport == nil {
		return fmt.Errorf("cluster: worker needs a coordinator URL or a transport")
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
		cfg.Transport = &HTTPTransport{
			BaseURL:        cfg.CoordinatorURL,
			Client:         cfg.Client,
			RequestTimeout: cfg.RequestTimeout,
			Binary:         cfg.BinaryShip,
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = SystemClock()
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	// MaxRetries, backoff, MaxPending and Seed keep their zero values here:
	// the embedded Shipper resolves them with the same defaults, so a
	// worker and an aggregator configured alike retry alike.
	return nil
}

// WorkerStats is a snapshot of a node's shipping counters.
type WorkerStats struct {
	Epoch   uint64 // epochs cut so far
	Shipped uint64 // epochs acknowledged by the coordinator
	Retries uint64 // individual deliveries that failed and were retried
	Dropped uint64 // epochs abandoned (rejected, or pending overflow)
	Pending int    // epochs cut but not yet acknowledged
}

// Worker wraps an engine's ingest surface and periodically ships its
// contents to a coordinator: the paper's Section 6 worker as a long-lived
// node. Local ingest (AddAll, or the httpapi surface sharing the same
// ingest surface) continues unblocked while shipments are in flight; each
// epoch's summary is a few kilobytes regardless of how much data the
// window carried.
//
// The queueing, retry and backoff machinery lives in Shipper, shared with
// the aggregation tier; Worker contributes the sketch-cutting half.
type Worker struct {
	cfg  WorkerConfig
	ing  engine.Ingest
	ship *Shipper
}

// NewWorker wraps an ingest surface — the MRL99 *quantile.Concurrent
// sketch, or a guarded KLL or GK engine — in a shipping worker. Its
// envelopes carry the engine's tag (MRL99's go out untagged, as before
// engines existed), so a coordinator running a different engine refuses
// them permanently instead of trying to decode foreign bytes. The ingest
// surface's eps/delta must match the coordinator's or every shipment will
// be rejected.
func NewWorker(ing engine.Ingest, cfg WorkerConfig) (*Worker, error) {
	if ing == nil {
		return nil, fmt.Errorf("cluster: worker needs an ingest surface")
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ship, err := NewShipper(ShipperConfig{
		ID:          cfg.ID,
		Engine:      ing.EngineName(),
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
	return &Worker{cfg: cfg, ing: ing, ship: ship}, nil
}

// Sketch returns the wrapped MRL99 sketch (shared with local ingest
// surfaces); nil for KLL and GK workers.
func (w *Worker) Sketch() *quantile.Concurrent[float64] {
	c, _ := w.ing.(*quantile.Concurrent[float64])
	return c
}

// AddAll ingests a batch.
func (w *Worker) AddAll(vs []float64) { w.ing.AddAll(vs) }

// Registry returns the registry carrying the worker's shipping metrics.
func (w *Worker) Registry() *obs.Registry { return w.cfg.Registry }

// Stats returns a snapshot of the shipping counters. It never blocks on an
// in-flight delivery: ship cycles hold their own lock across retries, and
// the counters are guarded separately.
func (w *Worker) Stats() WorkerStats { return w.ship.Stats() }

// Run ships on cfg.ShipInterval until ctx is cancelled, then makes one
// final drain attempt (with a fresh timeout) so a graceful shutdown ships
// the tail of the stream.
func (w *Worker) Run(ctx context.Context) {
	for {
		if err := w.cfg.Clock.Sleep(ctx, w.cfg.ShipInterval); err != nil {
			drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), w.cfg.RequestTimeout)
			if err := w.ShipOnce(drainCtx); err != nil {
				w.cfg.Logger.Warn("final drain failed", "worker", w.cfg.ID, "err", err.Error())
			}
			cancel()
			return
		}
		if err := w.ShipOnce(ctx); err != nil && ctx.Err() == nil {
			w.cfg.Logger.Warn("ship cycle incomplete", "worker", w.cfg.ID, "err", err.Error())
		}
	}
}

// ShipOnce cuts the current window into a new epoch (if it holds data) and
// attempts to deliver every pending epoch, oldest first, retrying each
// failed delivery with exponential backoff and jitter. Undelivered epochs
// stay queued for the next cycle; the coordinator's (worker, epoch) dedup
// makes redelivery after a lost acknowledgement harmless.
func (w *Worker) ShipOnce(ctx context.Context) error {
	return w.ship.ShipCycle(ctx, w.ing.Epsilon(), w.ing.Delta(), func() ([]byte, uint64, error) {
		return w.ing.ShipAndReset(codec.Float64())
	})
}
