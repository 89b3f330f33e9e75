package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/view"
)

// CoordinatorConfig configures a merge coordinator.
type CoordinatorConfig struct {
	// Eps and Delta are the guarantee parameters every worker must have
	// been built with; they determine the shared buffer size k, and a
	// mismatched shipment is rejected (mergeq's compatibility rule).
	Eps, Delta float64

	// Engine names the sketch engine this node merges ("mrl99", "kll" or
	// "gk"; empty means mrl99). Every worker must ship the same engine —
	// a shipment tagged with a different engine is refused with a 409, the
	// permanent-rejection class shippers drop without retrying.
	Engine string

	// Seed drives the coordinator's block-sampling decisions.
	Seed uint64

	// Level is this merge point's tier in a multi-level aggregation tree,
	// counted as hops below the root: 0 (the default) is the root, 1 an
	// aggregator shipping to the root, and so on. The level is stamped into
	// checkpoints, so a node refuses to restore state written at a
	// different tier.
	Level int

	// CheckpointExtra, when non-nil, rides additional durable state inside
	// the checkpoint file: Save is called on every checkpoint and Load on
	// restore (only when the file carries extra state). The aggregation
	// tier uses it to persist its upstream Shipper queue alongside the
	// merge state, keeping the two halves crash-consistent.
	CheckpointExtra CheckpointExtra

	// CheckpointPath, when non-empty, is the file the merged state is
	// persisted to. If the file exists at construction time the state is
	// restored from it.
	CheckpointPath string

	// CheckpointInterval is how often Run writes a checkpoint
	// (default 30s; ignored when CheckpointPath is empty).
	CheckpointInterval time.Duration

	// MaxBodyBytes bounds a shipment POST body (default 8 MiB).
	MaxBodyBytes int64

	// Clock supplies time for shipment bookkeeping, checkpoints and
	// metrics; nil means the system clock. The sim package injects a
	// virtual clock here.
	Clock Clock

	// Logger receives structured operational logs; nil discards them.
	Logger *slog.Logger

	// Registry receives the coordinator's metrics and backs GET /metrics;
	// nil builds a private registry (exposed via Registry()). Supply one to
	// share a scrape surface with co-located components.
	Registry *obs.Registry
}

// CheckpointExtra persists auxiliary node state inside the coordinator's
// checkpoint file, atomically with the merge state.
type CheckpointExtra interface {
	// Save returns the state to embed in the checkpoint.
	Save() (json.RawMessage, error)
	// Load restores state embedded by Save.
	Load(json.RawMessage) error
}

// Coordinator is the Section 6 "Processor P0" as a network service: it
// accepts worker shipments on POST /v1/ship, deduplicates retransmissions
// by (worker, epoch), merges them into its engine's merge state (for
// mrl99, the paper's collapse tree), answers aggregate queries, and
// checkpoints its state to disk for crash recovery.
//
// Read endpoints (/quantile, /cdf, /histogram) are served from an immutable
// merged view cached behind an atomic pointer and keyed on a version
// counter that every accepted shipment bumps: between shipments, queries
// are lock-free binary searches over the frozen view, and after a shipment
// exactly one reader rebuilds it (singleflight) while the rest wait.
type Coordinator struct {
	cfg CoordinatorConfig
	mux *http.ServeMux
	m   metrics

	start time.Time

	// engName is the normalized engine this node merges.
	engName string

	mu      sync.Mutex
	state   engine.MergeState
	seen    map[string]map[uint64]struct{}
	workers map[string]*WorkerStatus
	// version counts state-changing merges (accepted shipments, restores);
	// written while holding mu, read lock-free by the query warm path.
	version atomic.Uint64

	cache atomic.Pointer[coordView]
	// buildMu serializes view rebuilds so a shipment burst followed by a
	// query burst costs one merge walk, not one per query.
	buildMu sync.Mutex
}

// coordView pairs the immutable query view with the version it was built at.
type coordView struct {
	v       *view.View[float64]
	version uint64
}

// NewCoordinator builds a coordinator for the given guarantees and engine
// (engine.NewMergeState), restoring state from cfg.CheckpointPath if a
// checkpoint exists there.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	if cfg.Clock == nil {
		cfg.Clock = SystemClock()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	engName, err := engine.Normalize(cfg.Engine)
	if err != nil {
		return nil, err
	}
	state, err := engine.NewMergeState(engName, cfg.Eps, cfg.Delta, cfg.Seed^0xc00d, cfg.Level)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		state:   state,
		engName: engName,
		start:   cfg.Clock.Now(),
		seen:    make(map[string]map[uint64]struct{}),
		workers: make(map[string]*WorkerStatus),
	}
	c.m = newMetrics(cfg.Registry,
		func() float64 { return c.cfg.Clock.Now().Sub(c.start).Seconds() },
		c.workerSnapshot)
	if cfg.CheckpointPath != "" {
		if err := c.restore(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	c.mux.HandleFunc("POST "+ShipPath, c.handleShip)
	c.mux.HandleFunc("GET /quantile", c.handleQuantile)
	c.mux.HandleFunc("GET /cdf", c.handleCDF)
	c.mux.HandleFunc("GET /histogram", c.handleHistogram)
	c.mux.HandleFunc("GET /stats", c.handleStats)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Registry returns the registry backing GET /metrics.
func (c *Coordinator) Registry() *obs.Registry { return c.cfg.Registry }

// Count returns the aggregate element count merged so far.
func (c *Coordinator) Count() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.Count()
}

// Summary is a point-in-time description of the merge state, shared by
// /stats handlers here and in the aggregation tier.
type Summary struct {
	Count          uint64 // elements represented by the aggregate
	MemoryElements int    // elements resident in the collapse tree + B0
	MergeHeight    int    // h′, the merge tree's height (0 for non-tree engines)
	Children       int    // distinct senders that have shipped here
	B, K           int    // buffer layout (Eq 3's b and k; 0 for non-MRL99 engines)
	Engine         string // normalized engine name this node merges
}

// Summarize snapshots the merge-state numbers the stats surfaces report.
func (c *Coordinator) Summarize() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{
		Count:          c.state.Count(),
		MemoryElements: c.state.MemoryElements(),
		Children:       len(c.workers),
		Engine:         c.engName,
	}
	// Collapse-tree merge states (MRL99) also report h′ and their layout.
	if t, ok := c.state.(interface {
		MergeHeight() int
		Layout() (b, k int)
	}); ok {
		s.MergeHeight = t.MergeHeight()
		s.B, s.K = t.Layout()
	}
	return s
}

// ShipAndReset collapses the merged state into a single shipment blob (for
// mrl99, codec.MarshalShipment bytes) and installs a fresh, empty merge
// state in its place, returning the blob and the element count it
// represents. An empty aggregate returns (nil, 0, nil) — no epoch should
// be cut.
//
// This is the aggregator half-turn: everything the node accepted from its
// children since the last cut moves upstream as one summary whose size is
// bounded by the memory budget, not the data volume. Dedup state is kept —
// a child retransmitting an old epoch after our cut must still be refused.
func (c *Coordinator) ShipAndReset() ([]byte, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blob, count, err := c.state.Ship()
	if count > 0 {
		c.version.Add(1) // queries now answer from the emptied state
	}
	return blob, count, err
}

// workerSnapshot copies the per-worker status table plus the scrape
// timestamp for the metrics worker block.
func (c *Coordinator) workerSnapshot() (map[string]WorkerStatus, time.Time) {
	c.mu.Lock()
	workers := make(map[string]WorkerStatus, len(c.workers))
	for id, ws := range c.workers {
		workers[id] = *ws
	}
	c.mu.Unlock()
	return workers, c.cfg.Clock.Now()
}

// view returns the current query view, rebuilding it only when an accepted
// shipment (or a restore) has changed the aggregate since the cached one
// was built. The warm path takes no locks: one atomic load and a version
// compare.
func (c *Coordinator) view() (*view.View[float64], error) {
	ver := c.version.Load()
	if cv := c.cache.Load(); cv != nil && cv.version == ver {
		c.m.viewHits.Inc()
		return cv.v, nil
	}
	c.m.viewMisses.Inc()
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	if cv := c.cache.Load(); cv != nil && cv.version == c.version.Load() {
		return cv.v, nil
	}
	// Build under mu: the merge tree must not change mid-walk. The version
	// is read under the same critical section, so the cached key exactly
	// matches the state the view froze.
	begin := c.cfg.Clock.Now()
	c.mu.Lock()
	ver = c.version.Load()
	v, err := c.state.View()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.cache.Store(&coordView{v: v, version: ver})
	c.m.viewRebuilds.Inc()
	c.m.viewRebuildSeconds.Observe(c.cfg.Clock.Now().Sub(begin).Seconds())
	return v, nil
}

// Quantiles returns estimates of the given quantiles over the union of
// every accepted shipment — the same answers GET /quantile serves, exposed
// directly for in-process callers (the sim harness, embedding services).
// Served from the cached view; only the result slice is allocated.
func (c *Coordinator) Quantiles(phis []float64) ([]float64, error) {
	v, err := c.view()
	if err != nil {
		return nil, err
	}
	return v.Quantiles(phis)
}

// CDF estimates the fraction of aggregate stream elements ≤ v. On a warm
// view this is a single binary search.
func (c *Coordinator) CDF(v float64) (float64, error) {
	vw, err := c.view()
	if err != nil {
		return 0, err
	}
	return vw.CDF(v), nil
}

// Run blocks until ctx is cancelled, writing periodic checkpoints when
// configured. A final checkpoint is written on the way out, so a graceful
// shutdown loses nothing.
func (c *Coordinator) Run(ctx context.Context) {
	if c.cfg.CheckpointPath == "" {
		<-ctx.Done()
		return
	}
	for {
		if err := c.cfg.Clock.Sleep(ctx, c.cfg.CheckpointInterval); err != nil {
			if err := c.CheckpointNow(); err != nil {
				c.cfg.Logger.Error("final checkpoint failed", "err", err.Error())
			}
			return
		}
		if err := c.CheckpointNow(); err != nil {
			c.cfg.Logger.Error("checkpoint failed", "err", err.Error())
		}
	}
}

// checkpointFile is the on-disk envelope: the dedup table and per-worker
// view ride along with the CRC-protected merge-state blob, so a restart
// also remembers which (worker, epoch) pairs were already counted.
type checkpointFile struct {
	SavedAt time.Time `json:"saved_at"`
	Eps     float64   `json:"eps"`
	Delta   float64   `json:"delta"`
	Level   int       `json:"level,omitempty"`
	// Engine tags checkpoints written by non-mrl99 nodes; absent in files
	// written by the default stack, which stay byte-compatible.
	Engine  string                  `json:"engine,omitempty"`
	Seen    map[string][]uint64     `json:"seen"`
	Workers map[string]WorkerStatus `json:"workers"`
	Merge   []byte                  `json:"merge"`
	// Extra carries CheckpointExtra state (the aggregation tier's upstream
	// ship queue); absent for plain root coordinators.
	Extra json.RawMessage `json:"extra,omitempty"`
}

// CheckpointNow writes the coordinator's state to cfg.CheckpointPath
// atomically (temp file + rename).
func (c *Coordinator) CheckpointNow() error {
	if c.cfg.CheckpointPath == "" {
		return fmt.Errorf("cluster: no checkpoint path configured")
	}
	c.mu.Lock()
	blob, err := c.state.Checkpoint()
	seen := make(map[string][]uint64, len(c.seen))
	for id, epochs := range c.seen {
		list := make([]uint64, 0, len(epochs))
		for e := range epochs {
			list = append(list, e)
		}
		seen[id] = list
	}
	workers := make(map[string]WorkerStatus, len(c.workers))
	for id, ws := range c.workers {
		workers[id] = *ws
	}
	c.mu.Unlock()

	if err != nil {
		c.m.checkpointErrors.Inc()
		return err
	}
	var extra json.RawMessage
	if c.cfg.CheckpointExtra != nil {
		if extra, err = c.cfg.CheckpointExtra.Save(); err != nil {
			c.m.checkpointErrors.Inc()
			return fmt.Errorf("cluster: checkpoint extra state: %w", err)
		}
	}
	engTag := ""
	if c.engName != engine.MRL99 {
		engTag = c.engName
	}
	data, err := json.Marshal(checkpointFile{
		SavedAt: c.cfg.Clock.Now(),
		Eps:     c.cfg.Eps,
		Delta:   c.cfg.Delta,
		Level:   c.cfg.Level,
		Engine:  engTag,
		Seen:    seen,
		Workers: workers,
		Merge:   blob,
		Extra:   extra,
	})
	if err != nil {
		c.m.checkpointErrors.Inc()
		return err
	}
	dir := filepath.Dir(c.cfg.CheckpointPath)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		c.m.checkpointErrors.Inc()
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		c.m.checkpointErrors.Inc()
		return err
	}
	if err := tmp.Close(); err != nil {
		c.m.checkpointErrors.Inc()
		return err
	}
	if err := os.Rename(tmp.Name(), c.cfg.CheckpointPath); err != nil {
		c.m.checkpointErrors.Inc()
		return err
	}
	c.m.checkpoints.Inc()
	return nil
}

// restore loads a checkpoint written by CheckpointNow. A missing file is
// a clean first start; a present-but-unreadable one is an error (silently
// dropping acknowledged data would be worse than refusing to start).
func (c *Coordinator) restore(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("cluster: checkpoint %s: %w", path, err)
	}
	if f.Eps != c.cfg.Eps || f.Delta != c.cfg.Delta {
		return fmt.Errorf("cluster: checkpoint %s was written with eps=%g delta=%g, coordinator runs eps=%g delta=%g",
			path, f.Eps, f.Delta, c.cfg.Eps, c.cfg.Delta)
	}
	fileEng := f.Engine
	if fileEng == "" {
		fileEng = engine.MRL99
	}
	if fileEng != c.engName {
		return fmt.Errorf("cluster: checkpoint %s was written with engine %q, node runs engine %q",
			path, fileEng, c.engName)
	}
	// Restoring state across tiers would splice a differently-budgeted
	// summary into the tree, whatever the engine.
	if f.Level != c.cfg.Level {
		return fmt.Errorf("cluster: checkpoint %s was written at level %d, node runs at level %d",
			path, f.Level, c.cfg.Level)
	}
	if err := c.state.Restore(f.Merge); err != nil {
		return fmt.Errorf("cluster: checkpoint %s: %w", path, err)
	}
	c.seen = make(map[string]map[uint64]struct{}, len(f.Seen))
	for id, list := range f.Seen {
		epochs := make(map[uint64]struct{}, len(list))
		for _, e := range list {
			epochs[e] = struct{}{}
		}
		c.seen[id] = epochs
	}
	c.workers = make(map[string]*WorkerStatus, len(f.Workers))
	for id, ws := range f.Workers {
		w := ws
		c.workers[id] = &w
	}
	c.version.Add(1)
	count := c.state.Count()
	c.m.elements.Add(count)
	if c.cfg.CheckpointExtra != nil && len(f.Extra) > 0 {
		if err := c.cfg.CheckpointExtra.Load(f.Extra); err != nil {
			return fmt.Errorf("cluster: checkpoint %s: extra state: %w", path, err)
		}
	}
	c.cfg.Logger.Info("restored checkpoint",
		"path", path, "elements", count, "workers", len(c.workers),
		"saved", f.SavedAt.Format(time.RFC3339))
	return nil
}

func (c *Coordinator) handleShip(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	ct = strings.ToLower(strings.TrimSpace(ct))
	var env Envelope
	switch ct {
	case ShipContentTypeBinary:
		body, err := io.ReadAll(r.Body)
		if err == nil {
			env, err = DecodeBinaryEnvelope(body)
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				c.m.shipmentsRejected.Inc()
				writeShipError(w, http.StatusRequestEntityTooLarge, "shipment body exceeds %d bytes", tooBig.Limit)
				return
			}
			c.m.shipmentsRejected.Inc()
			writeShipError(w, http.StatusBadRequest, "decoding binary envelope: %v", err)
			return
		}
	case "", "application/json":
		if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				c.m.shipmentsRejected.Inc()
				writeShipError(w, http.StatusRequestEntityTooLarge, "shipment body exceeds %d bytes", tooBig.Limit)
				return
			}
			c.m.shipmentsRejected.Inc()
			writeShipError(w, http.StatusBadRequest, "decoding envelope: %v", err)
			return
		}
	default:
		c.m.shipmentsRejected.Inc()
		writeShipError(w, http.StatusUnsupportedMediaType,
			"content type %q: %s takes application/json or %s", ct, ShipPath, ShipContentTypeBinary)
		return
	}
	status, res := c.Ingest(env)
	writeJSON(w, status, res)
}

// Ingest validates env and merges its shipment into the aggregate,
// returning an HTTP-style status code and the coordinator's verdict. It is
// the transport-independent core of POST /v1/ship, shared by the HTTP
// handler and the sim package's in-memory transport.
func (c *Coordinator) Ingest(env Envelope) (int, ShipResult) {
	c.m.shipmentsReceived.Inc()
	reject := func(status int, format string, args ...any) (int, ShipResult) {
		c.m.shipmentsRejected.Inc()
		return status, ShipResult{Status: StatusRejected, Error: fmt.Sprintf(format, args...)}
	}
	if err := env.Validate(); err != nil {
		return reject(http.StatusBadRequest, "%v", err)
	}
	// mergeq's compatibility rule: eps/delta (and therefore k) must match.
	if env.Eps != c.cfg.Eps || env.Delta != c.cfg.Delta {
		return reject(http.StatusConflict,
			"worker %s built with eps=%g delta=%g, coordinator runs eps=%g delta=%g",
			env.Worker, env.Eps, env.Delta, c.cfg.Eps, c.cfg.Delta)
	}
	// Mixed-engine shipments are refused before any decode attempt: the
	// blobs are not convertible, so this is a permanent (409) rejection.
	envEng := env.Engine
	if envEng == "" {
		envEng = engine.MRL99
	}
	if envEng != c.engName {
		c.m.engineMismatch.Inc()
		return reject(http.StatusConflict,
			"worker %s ships engine %q, coordinator runs engine %q",
			env.Worker, envEng, c.engName)
	}

	c.mu.Lock()
	if _, dup := c.seen[env.Worker][env.Epoch]; dup {
		ws := c.workers[env.Worker]
		ws.Duplicates++
		total := c.state.Count()
		c.mu.Unlock()
		c.m.shipmentsDeduped.Inc()
		return http.StatusOK, ShipResult{Status: StatusDuplicate, Count: total}
	}
	begin := c.cfg.Clock.Now()
	// Merge decodes and validates the whole blob (including the
	// envelope-count cross-check) and leaves the aggregate untouched when
	// it fails.
	if _, err := c.state.Merge(env.Blob, env.Count); err != nil {
		c.mu.Unlock()
		status := http.StatusBadRequest
		if engine.Incompatible(err) {
			status = http.StatusConflict
		}
		return reject(status, "merging shipment: %v", err)
	}
	c.m.mergeSeconds.Add(c.cfg.Clock.Now().Sub(begin).Seconds())
	c.m.merges.Inc()
	if c.seen[env.Worker] == nil {
		c.seen[env.Worker] = make(map[uint64]struct{})
	}
	c.seen[env.Worker][env.Epoch] = struct{}{}
	ws := c.workers[env.Worker]
	if ws == nil {
		ws = &WorkerStatus{}
		c.workers[env.Worker] = ws
	}
	if env.Epoch > ws.LastEpoch {
		ws.LastEpoch = env.Epoch
	}
	ws.LastSeen = c.cfg.Clock.Now()
	ws.Count += env.Count
	ws.Shipments++
	total := c.state.Count()
	c.version.Add(1) // invalidate the cached query view
	c.mu.Unlock()

	c.m.shipmentsAccepted.Inc()
	c.m.bytesIngested.Add(uint64(len(env.Blob)))
	c.m.elements.Add(env.Count)
	c.cfg.Logger.Info("accepted shipment",
		"worker", env.Worker, "epoch", env.Epoch, "elements", env.Count, "total", total)
	return http.StatusOK, ShipResult{Status: StatusAccepted, Count: total}
}

func (c *Coordinator) handleQuantile(w http.ResponseWriter, r *http.Request) {
	phis, err := params.PhiList(r.URL.Query().Get("phi"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	vals, err := c.Quantiles(phis)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	out := make(map[string]float64, len(phis))
	for i, phi := range phis {
		out[strconv.FormatFloat(phi, 'g', -1, 64)] = vals[i]
	}
	writeJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleCDF(w http.ResponseWriter, r *http.Request) {
	v, err := params.FiniteFloat("v", r.URL.Query().Get("v"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	frac, err := c.CDF(v)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"v": v, "cdf": frac})
}

func (c *Coordinator) handleHistogram(w http.ResponseWriter, r *http.Request) {
	buckets, err := params.BucketCount(r.URL.Query().Get("buckets"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	phis := make([]float64, buckets-1)
	for i := range phis {
		phis[i] = float64(i+1) / float64(buckets)
	}
	v, err := c.view()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	bounds, err := v.Quantiles(phis)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"buckets":    buckets,
		"boundaries": bounds,
		"rows":       v.N(),
	})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	s := c.Summarize()
	writeJSON(w, http.StatusOK, map[string]any{
		"role":            "coordinator",
		"engine":          s.Engine,
		"count":           s.Count,
		"memory_elements": s.MemoryElements,
		"merge_height":    s.MergeHeight,
		"workers":         s.Children,
		"eps":             c.cfg.Eps,
		"delta":           c.cfg.Delta,
		"layout":          map[string]int{"b": s.B, "k": s.K},
		"uptime_seconds":  c.cfg.Clock.Now().Sub(c.start).Seconds(),
	})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	count := c.state.Count()
	workers := make(map[string]WorkerStatus, len(c.workers))
	for id, ws := range c.workers {
		workers[id] = *ws
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"count":          count,
		"workers":        workers,
		"uptime_seconds": c.cfg.Clock.Now().Sub(c.start).Seconds(),
	})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	c.cfg.Registry.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeShipError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ShipResult{Status: StatusRejected, Error: fmt.Sprintf(format, args...)})
}
