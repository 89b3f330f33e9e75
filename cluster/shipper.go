package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
)

// ShipperConfig configures the upstream-shipping half of a cluster node:
// the epoch queue, retry/backoff policy, and transport toward the parent.
// Worker and agg.Aggregator both embed a Shipper, so the two node kinds
// share one delivery discipline and one metrics surface.
type ShipperConfig struct {
	// ID identifies this node to its parent; (ID, epoch) is the parent's
	// deduplication key, so it must be unique among the parent's children
	// and stable across this node's lifetime.
	ID string

	// Transport delivers envelopes to the parent. Required.
	Transport Transport

	// Clock paces retry backoff and timestamps deliveries; nil means the
	// system clock. The sim package injects a virtual clock here.
	Clock Clock

	// MaxRetries is how many times a failed delivery is retried within one
	// ship cycle before the epoch is parked for the next cycle (default 5;
	// negative means no retries).
	MaxRetries int

	// BackoffBase and BackoffMax shape the exponential backoff between
	// retries (defaults 200ms and 5s); each delay is jittered by a factor
	// in [0.5, 1.5) so a fleet does not retry in lockstep.
	BackoffBase, BackoffMax time.Duration

	// MaxPending bounds the undelivered-epoch queue kept across ship
	// cycles while the parent is unreachable (default 64); beyond it the
	// oldest epoch is dropped and counted in Stats().Dropped.
	MaxPending int

	// Seed drives the retry jitter deterministically; 0 derives a seed
	// from ID, so distinct nodes still jitter apart while any single
	// node's behavior replays exactly from its configuration.
	Seed uint64

	// Engine names the sketch engine whose blobs this node ships; empty
	// means the default MRL99 stack. MRL99 envelopes go out untagged
	// either way, keeping the wire bytes identical to pre-engine nodes.
	// The parent refuses mixed-engine shipments with a permanent
	// rejection, so a misconfigured node drops rather than retries.
	Engine string

	// Logger receives structured operational logs; nil discards them.
	Logger *slog.Logger

	// Registry receives the shipping metrics (epochs cut, delivery
	// attempts, retries, drops, backoff time, per-delivery latency,
	// pending-queue depth), every series labeled with the node ID so a
	// fleet can share one registry. nil keeps them in a private registry.
	Registry *obs.Registry
}

func (cfg *ShipperConfig) fillDefaults() error {
	if cfg.ID == "" {
		return fmt.Errorf("cluster: shipper needs an ID")
	}
	if cfg.Transport == nil {
		return fmt.Errorf("cluster: shipper needs a transport")
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 5
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 200 * time.Millisecond
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = 5 * time.Second
		if cfg.BackoffMax < cfg.BackoffBase {
			cfg.BackoffMax = cfg.BackoffBase
		}
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 64
	}
	if cfg.Clock == nil {
		cfg.Clock = SystemClock()
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
	if cfg.Engine == engine.MRL99 {
		cfg.Engine = ""
	}
	return nil
}

// shipMetrics are the registry-backed shipping counters, labeled by the
// shipping node's ID.
type shipMetrics struct {
	epochsCut      *obs.Counter
	attempts       *obs.Counter
	retries        *obs.Counter
	shipped        *obs.Counter
	dropped        *obs.Counter
	backoffSeconds *obs.FloatCounter
	shipSeconds    *obs.Histogram
}

func newShipMetrics(reg *obs.Registry, id string, pending func() int) shipMetrics {
	labeled := func(name string) string { return fmt.Sprintf("%s{worker=%q}", name, id) }
	m := shipMetrics{
		epochsCut:      reg.Counter(labeled("cluster_ship_epochs_cut_total"), "Epochs finalized from the local sketch."),
		attempts:       reg.Counter(labeled("cluster_ship_attempts_total"), "Shipment delivery attempts, including retries."),
		retries:        reg.Counter(labeled("cluster_ship_retries_total"), "Delivery attempts beyond the first, per epoch delivery."),
		shipped:        reg.Counter(labeled("cluster_ship_epochs_shipped_total"), "Epochs acknowledged by the coordinator."),
		dropped:        reg.Counter(labeled("cluster_ship_epochs_dropped_total"), "Epochs abandoned (rejected by the coordinator, or pending overflow)."),
		backoffSeconds: reg.FloatCounter(labeled("cluster_ship_backoff_seconds_total"), "Cumulative time spent sleeping between delivery retries."),
	}
	reg.GaugeFunc(labeled("cluster_ship_pending_epochs"), "Epochs cut but not yet acknowledged.",
		func() float64 { return float64(pending()) })
	// Registered after every pre-existing series so goldens that pin the
	// older exposition stay byte-identical (append-only rule).
	m.shipSeconds = reg.Histogram(labeled("cluster_ship_seconds"),
		"Wall time of one upstream delivery attempt (per hop, including failures).", nil)
	return m
}

// Shipper owns the upstream half of a node: it cuts epochs from a local
// summary (via a caller-supplied cut function), queues them, and delivers
// them to the parent oldest-first with retry, backoff and bounded pending.
// Worker wires it to a Concurrent sketch; agg.Aggregator wires it to its
// merged coordinator state, making every hop of a multi-level tree ship
// with identical semantics.
type Shipper struct {
	cfg ShipperConfig
	m   shipMetrics

	// cycleMu serializes ship cycles end-to-end (periodic ticks, explicit
	// ShipCycle callers, final drains), so pending epochs are never
	// delivered twice by overlapping cycles. It is held across network
	// calls and backoff sleeps — which is exactly why it must NOT be the
	// lock Stats() takes.
	cycleMu sync.Mutex

	// mu guards the bookkeeping below and is only ever held for a few
	// field accesses — never across a delivery or a sleep — so Stats()
	// stays responsive throughout a parent outage.
	mu      sync.Mutex
	rg      *rng.RNG // retry jitter; guarded by mu
	epoch   uint64
	pending []Envelope
	stats   WorkerStats
}

// NewShipper builds a Shipper from cfg.
func NewShipper(cfg ShipperConfig) (*Shipper, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &Shipper{cfg: cfg, rg: rng.New(cfg.Seed)}
	s.m = newShipMetrics(cfg.Registry, cfg.ID, func() int { return s.Stats().Pending })
	return s, nil
}

// Stats returns a snapshot of the shipping counters. It never blocks on an
// in-flight delivery: ship cycles hold their own lock across retries, and
// the counters are guarded separately.
func (s *Shipper) Stats() WorkerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Epoch = s.epoch
	st.Pending = len(s.pending)
	return st
}

// ShipperState is the durable part of a Shipper: the epoch counter and the
// undelivered queue. Aggregators persist it inside their checkpoint so a
// restart resumes the epoch sequence instead of reusing numbers the parent
// has already deduplicated.
type ShipperState struct {
	Epoch   uint64     `json:"epoch"`
	Shipped uint64     `json:"shipped"`
	Dropped uint64     `json:"dropped"`
	Pending []Envelope `json:"pending,omitempty"`
}

// Snapshot captures the durable shipping state. Envelope blobs are shared
// with the live queue; they are never mutated after being cut.
func (s *Shipper) Snapshot() ShipperState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShipperState{
		Epoch:   s.epoch,
		Shipped: s.stats.Shipped,
		Dropped: s.stats.Dropped,
		Pending: append([]Envelope(nil), s.pending...),
	}
}

// Restore replaces the epoch counter and pending queue with a snapshot,
// typically straight after construction when a node restarts from its
// checkpoint. Retry counters are in-memory observability and start at zero.
func (s *Shipper) Restore(st ShipperState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = st.Epoch
	s.stats.Shipped = st.Shipped
	s.stats.Dropped = st.Dropped
	s.pending = append([]Envelope(nil), st.Pending...)
}

// ShipCycle runs one ship cycle: cut the local window into a new epoch (if
// cut yields data) and attempt to deliver every pending epoch, oldest
// first, retrying each failed delivery with exponential backoff and
// jitter. Undelivered epochs stay queued for the next cycle; the parent's
// (ID, epoch) dedup makes redelivery after a lost acknowledgement harmless.
//
// Cycles are serialized by their own mutex; the counters Stats() reads are
// only locked for the queue edits, so a parent outage (up to MaxRetries
// backoff sleeps per pending epoch) never freezes observers.
func (s *Shipper) ShipCycle(ctx context.Context, eps, delta float64, cut func() (blob []byte, count uint64, err error)) error {
	s.cycleMu.Lock()
	defer s.cycleMu.Unlock()

	blob, count, err := cut()
	if err != nil {
		return fmt.Errorf("finalizing epoch: %w", err)
	}

	s.mu.Lock()
	if count > 0 {
		s.epoch++
		s.m.epochsCut.Inc()
		s.pending = append(s.pending, Envelope{
			Worker: s.cfg.ID,
			Epoch:  s.epoch,
			Eps:    eps,
			Delta:  delta,
			Count:  count,
			Blob:   blob,
			Engine: s.cfg.Engine,
		})
	}
	var overflowed []uint64
	for over := len(s.pending) - s.cfg.MaxPending; over > 0; over-- {
		overflowed = append(overflowed, s.pending[0].Epoch)
		s.pending = s.pending[1:]
		s.stats.Dropped++
	}
	// Snapshot the delivery queue; only this cycle (under cycleMu) appends
	// to or pops from pending, so the snapshot stays aligned with its head.
	queue := append([]Envelope(nil), s.pending...)
	s.mu.Unlock()

	for _, epoch := range overflowed {
		s.m.dropped.Inc()
		s.cfg.Logger.Warn("pending overflow, dropping epoch", "worker", s.cfg.ID, "epoch", epoch)
	}

	for _, env := range queue {
		err := s.deliver(ctx, env)
		switch {
		case err == nil:
			s.mu.Lock()
			s.pending = s.pending[1:]
			s.stats.Shipped++
			s.mu.Unlock()
			s.m.shipped.Inc()
		case IsPermanent(err):
			// The parent understood the shipment and refused it (config
			// mismatch, malformed blob); retrying cannot help.
			s.cfg.Logger.Warn("epoch rejected", "worker", s.cfg.ID, "epoch", env.Epoch, "err", err.Error())
			s.mu.Lock()
			s.pending = s.pending[1:]
			s.stats.Dropped++
			s.mu.Unlock()
			s.m.dropped.Inc()
		default:
			return fmt.Errorf("epoch %d undelivered (kept pending): %w", env.Epoch, err)
		}
	}
	return nil
}

// deliver ships one envelope, retrying transient failures with backoff.
// It is called without s.mu held and takes it only to bump counters and
// draw jitter.
func (s *Shipper) deliver(ctx context.Context, env Envelope) error {
	var lastErr error
	for attempt := 0; attempt <= s.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			s.mu.Lock()
			s.stats.Retries++
			d := s.backoffLocked(attempt)
			s.mu.Unlock()
			s.m.retries.Inc()
			s.m.backoffSeconds.Add(d.Seconds())
			if err := s.cfg.Clock.Sleep(ctx, d); err != nil {
				return err
			}
		}
		s.m.attempts.Inc()
		start := s.cfg.Clock.Now()
		_, lastErr = s.cfg.Transport.Ship(ctx, env)
		s.m.shipSeconds.Observe(s.cfg.Clock.Now().Sub(start).Seconds())
		if lastErr == nil || IsPermanent(lastErr) {
			return lastErr
		}
		s.cfg.Logger.Info("delivery attempt failed",
			"worker", s.cfg.ID, "epoch", env.Epoch, "attempt", attempt+1, "err", lastErr.Error())
	}
	return lastErr
}

// backoffLocked returns the jittered exponential delay before retry
// `attempt` (1-based): base·2^(attempt−1) capped at max, scaled by
// [0.5, 1.5). Callers must hold s.mu (for the jitter generator).
func (s *Shipper) backoffLocked(attempt int) time.Duration {
	d := s.cfg.BackoffBase << (attempt - 1)
	if d > s.cfg.BackoffMax || d <= 0 {
		d = s.cfg.BackoffMax
	}
	return time.Duration((0.5 + s.rg.Float64()) * float64(d))
}
