// Package httpapi exposes a quantile summary as an HTTP service: a
// lightweight sidecar for dashboards, load generators or anything that
// wants streaming percentiles without linking the library. It wraps an
// engine's goroutine-safe ingest surface — by default the MRL99 sharded
// sketch — so concurrent ingest and query requests are fine.
//
// Endpoints (JSON responses unless noted):
//
//	POST /add              whitespace-separated numbers in the body
//	POST /v1/ingest        binary float64 slab frames (application/x-quantile-slab)
//	POST /v1/ingest/keyed  keyed slab frames (application/x-quantile-keyed-slab)
//	GET  /quantile         ?phi=0.5,0.95,0.99[&key=tenant]
//	GET  /cdf              ?v=123.4[&key=tenant]
//	GET  /histogram        ?buckets=10
//	GET  /stats
//	GET  /metrics          Prometheus text format
//
// MRL99 servers additionally run a multi-tenant keyed sketch store: keyed
// slab frames route each slab to its key's sketch, and `key=` on /quantile
// and /cdf serves that key's summary from a per-key cached view. Memory is
// bounded by LRU capacity and TTL eviction (SetKeyed); the store answers
// 404 for unknown/evicted keys and 429 when a full store rejects new keys.
// KLL and GK servers answer 501 on the keyed surface.
//
// Every endpoint is instrumented: request/error counters, latency
// histograms and in-flight gauges per endpoint, plus sketch-level gauges
// (element count, memory footprint, view-cache counters) and keyed-store
// gauges (occupancy, evictions, rejects), all served on GET /metrics from
// the server's obs.Registry.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	quantile "repro"
	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/keyed"
	"repro/internal/obs"
)

// DefaultMaxBodyBytes caps a POST /add body unless overridden with
// SetMaxBodyBytes: generous for bulk loads, but bounded so a misbehaving
// client cannot stream forever into one request.
const DefaultMaxBodyBytes = 64 << 20

// DefaultMaxKeys is the keyed store's key cap unless overridden with
// SetKeyed: a million tenants, each paying the per-key b·k footprint.
const DefaultMaxKeys = 1 << 20

// KeyedConfig sizes the server's multi-tenant keyed sketch store; zero
// values select defaults (DefaultMaxKeys keys, keyed.DefaultShards stripes,
// no TTL, LRU eviction).
type KeyedConfig struct {
	// MaxKeys bounds resident keys (0 selects DefaultMaxKeys).
	MaxKeys int
	// TTL evicts keys idle longer than this (0 = never).
	TTL time.Duration
	// Shards is the store's stripe count, a power of two (0 selects
	// keyed.DefaultShards).
	Shards int
	// RejectWhenFull answers new keys with 429 instead of evicting the
	// least-recently-used key when the store is full.
	RejectWhenFull bool
	// Seed makes per-key sampling decisions reproducible.
	Seed uint64
	// Now injects the eviction and window-rotation clock (nil = time.Now);
	// tests use a virtual clock.
	Now func() time.Time
	// Window enables per-key time-windowed queries covering this much
	// recent history (0 disables). The span divides into WindowEpochs
	// tumbling epochs; the epoch width rounds up, so actual coverage is
	// ceil(Window/WindowEpochs)·WindowEpochs ≥ Window.
	Window time.Duration
	// WindowEpochs is the per-key ring size E (0 selects
	// DefaultWindowEpochs when Window is set). Per-key memory grows to
	// (1+E)·b·k elements.
	WindowEpochs int
}

// DefaultWindowEpochs is the window ring size when KeyedConfig.Window is
// set without an explicit epoch count: fine enough that a query over the
// full span overshoots by at most 10%, coarse enough that per-key memory
// stays modest.
const DefaultWindowEpochs = 10

// Server wraps an engine's ingest surface behind HTTP endpoints.
type Server struct {
	ing     engine.Ingest
	keyed   *keyed.Store[string, float64] // per-key store (MRL99 servers)
	maxBody int64
	start   time.Time
	mux     *http.ServeMux
	reg     *obs.Registry
	logger  *slog.Logger

	// clock stamps request latencies; tests substitute a fixed clock so the
	// /metrics exposition is byte-deterministic.
	clock func() time.Time
}

// New returns an MRL99 Server with the given guarantees and shard count
// (0 selects the default).
func New(eps, delta float64, shards int, opts ...quantile.Option) (*Server, error) {
	c, err := quantile.NewConcurrent[float64](eps, delta, shards, opts...)
	if err != nil {
		return nil, err
	}
	return NewEngine(c)
}

// NewEngine serves an engine's ingest surface (see engine.NewIngest), which
// may be shared with other in-process users — a cluster worker shipping
// its windows, say. An MRL99 surface (*quantile.Concurrent) also gets the
// view-cache metrics and a default keyed store; KLL and GK servers have no
// keyed store.
func NewEngine(ing engine.Ingest) (*Server, error) {
	if ing == nil {
		return nil, fmt.Errorf("httpapi: nil ingest surface")
	}
	s := &Server{
		ing:     ing,
		maxBody: DefaultMaxBodyBytes,
		start:   time.Now(),
		mux:     http.NewServeMux(),
		reg:     obs.NewRegistry(),
		logger:  obs.Discard(),
		clock:   time.Now,
	}
	s.routes()
	s.reg.CounterFunc("sketch_elements_total", "Stream elements consumed by the sketch.", ing.Count)
	s.reg.GaugeFunc("sketch_memory_elements", "Elements resident in sketch buffers (the paper's space bound).",
		func() float64 { return float64(ing.MemoryElements()) })
	c := s.Sketch()
	if c == nil {
		return s, nil
	}
	s.reg.CounterFunc("sketch_view_hits_total", "Queries answered from the cached immutable view.",
		func() uint64 { h, _, _ := c.ViewStats(); return h })
	s.reg.CounterFunc("sketch_view_misses_total", "Queries that found the cached view stale or absent.",
		func() uint64 { _, m, _ := c.ViewStats(); return m })
	s.reg.CounterFunc("sketch_view_rebuilds_total", "Query-view reconstructions performed.",
		func() uint64 { _, _, r := c.ViewStats(); return r })
	if err := s.SetKeyed(KeyedConfig{}); err != nil {
		return nil, err
	}
	s.describeKeyed()
	return s, nil
}

// routes wires the shared endpoint table.
func (s *Server) routes() {
	s.mux.Handle("POST /add", s.instrument("add", s.handleAdd))
	s.mux.Handle("POST /v1/ingest", s.instrument("ingest", s.handleIngest))
	s.mux.Handle("POST /v1/ingest/keyed", s.instrument("ingest_keyed", s.handleKeyedIngest))
	s.mux.Handle("GET /quantile", s.instrument("quantile", s.handleQuantile))
	s.mux.Handle("GET /cdf", s.instrument("cdf", s.handleCDF))
	s.mux.Handle("GET /histogram", s.instrument("histogram", s.handleHistogram))
	s.mux.Handle("GET /stats", s.instrument("stats", s.handleStats))
	s.mux.Handle("GET /metrics", s.reg.Handler())
}

// describeKeyed registers the keyed store's metrics. The closures read
// s.keyed on every scrape, so SetKeyed may replace the store afterwards.
func (s *Server) describeKeyed() {
	stats := func() keyed.Stats {
		if s.keyed == nil {
			return keyed.Stats{}
		}
		return s.keyed.Stats()
	}
	s.reg.GaugeFunc("keyed_keys", "Distinct keys resident in the keyed sketch store.",
		func() float64 { return float64(stats().Keys) })
	s.reg.GaugeFunc("keyed_memory_bound_elements", "Worst-case resident element footprint across keys (#keys*b*k, the paper's Group-By memory model).",
		func() float64 {
			if s.keyed == nil {
				return 0
			}
			return float64(s.keyed.MemoryBoundElements())
		})
	s.reg.CounterFunc("keyed_keys_created_total", "Keyed store entries ever created.",
		func() uint64 { return stats().Created })
	s.reg.CounterFunc(`keyed_evictions_total{reason="lru"}`, "Keys evicted by capacity pressure.",
		func() uint64 { return stats().EvictedLRU })
	s.reg.CounterFunc(`keyed_evictions_total{reason="ttl"}`, "Keys evicted by idle expiry.",
		func() uint64 { return stats().EvictedTTL })
	s.reg.CounterFunc("keyed_rejected_total", "Inserts refused because the keyed store was full.",
		func() uint64 { return stats().Rejected })
	s.reg.GaugeFunc("keyed_window_span_seconds", "Maximum windowed-query coverage per key (0 = windows disabled).",
		func() float64 {
			if s.keyed == nil {
				return 0
			}
			return s.keyed.WindowSpan().Seconds()
		})
	s.reg.CounterFunc("keyed_window_rotations_total", "Window epoch slots retired across all keys.",
		func() uint64 { return stats().WindowRotations })
	s.reg.CounterFunc("keyed_window_rebuilds_total", "Windowed merged-view rebuilds across all keys.",
		func() uint64 { return stats().WindowRebuilds })
}

// SetKeyed replaces the server's keyed sketch store with one sized by cfg.
// Call before serving: in-flight keyed requests against the old store are
// not drained, and previously ingested keys do not carry over. KLL and GK
// servers have no keyed store and reject the call.
func (s *Server) SetKeyed(cfg KeyedConfig) error {
	if s.Sketch() == nil {
		return fmt.Errorf("httpapi: keyed store requires an MRL99 server (engine servers serve 501 on the keyed surface)")
	}
	if cfg.MaxKeys == 0 {
		cfg.MaxKeys = DefaultMaxKeys
	}
	layout, err := keyed.Solve(s.ing.Epsilon(), s.ing.Delta())
	if err != nil {
		return err
	}
	layout.Seed = cfg.Seed
	full := keyed.EvictLRU
	if cfg.RejectWhenFull {
		full = keyed.Reject
	}
	var width time.Duration
	epochs := 0
	if cfg.Window < 0 {
		return fmt.Errorf("httpapi: negative window %s", cfg.Window)
	}
	if cfg.WindowEpochs < 0 {
		return fmt.Errorf("httpapi: negative window epoch count %d", cfg.WindowEpochs)
	}
	if cfg.Window > 0 {
		epochs = cfg.WindowEpochs
		if epochs == 0 {
			epochs = DefaultWindowEpochs
		}
		// Round the width up so epochs·width covers at least cfg.Window —
		// truncation would silently reject window=<full span> queries.
		width = (cfg.Window + time.Duration(epochs) - 1) / time.Duration(epochs)
	} else if cfg.WindowEpochs > 0 {
		return fmt.Errorf("httpapi: WindowEpochs %d without a Window span", cfg.WindowEpochs)
	}
	store, err := keyed.New[string, float64](keyed.Config{
		Sketch:       layout,
		Shards:       cfg.Shards,
		MaxKeys:      cfg.MaxKeys,
		OnFull:       full,
		TTL:          cfg.TTL,
		Now:          cfg.Now,
		WindowWidth:  width,
		WindowEpochs: epochs,
	})
	if err != nil {
		return err
	}
	s.keyed = store
	return nil
}

// Keyed returns the server's keyed sketch store (for in-process use, e.g. a
// housekeeping loop calling SweepExpired); nil for KLL and GK servers.
func (s *Server) Keyed() *keyed.Store[string, float64] { return s.keyed }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Sketch returns the underlying MRL99 sketch (for in-process use
// alongside the HTTP surface); nil for KLL and GK servers.
func (s *Server) Sketch() *quantile.Concurrent[float64] {
	c, _ := s.ing.(*quantile.Concurrent[float64])
	return c
}

// Ingest returns the ingest surface the server wraps.
func (s *Server) Ingest() engine.Ingest { return s.ing }

// Registry returns the registry behind GET /metrics. Co-located components
// (a cluster worker sharing this server's sketch, say) can register their
// own metrics on it to share the scrape surface.
func (s *Server) Registry() *obs.Registry { return s.reg }

// SetLogger routes request-level logs (errors, oversized bodies) to l.
// Call before serving; nil restores the discard logger.
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		l = obs.Discard()
	}
	s.logger = l
}

// SetMaxBodyBytes overrides the POST /add body cap (n <= 0 restores the
// default). Call before serving.
func (s *Server) SetMaxBodyBytes(n int64) {
	if n <= 0 {
		n = DefaultMaxBodyBytes
	}
	s.maxBody = n
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps an endpoint handler with its per-endpoint metrics:
// request and error counters, an in-flight gauge, and a latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	label := func(name string) string { return fmt.Sprintf("%s{endpoint=%q}", name, endpoint) }
	requests := s.reg.Counter(label("http_requests_total"), "HTTP requests handled, by endpoint.")
	errors := s.reg.Counter(label("http_request_errors_total"), "HTTP requests answered with status >= 400, by endpoint.")
	inflight := s.reg.Gauge(label("http_requests_in_flight"), "Requests currently being handled, by endpoint.")
	latency := s.reg.Histogram(label("http_request_seconds"), "Request handling latency in seconds, by endpoint.", nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		inflight.Inc()
		defer inflight.Dec()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		begin := s.clock()
		h(rec, r)
		latency.Observe(s.clock().Sub(begin).Seconds())
		if rec.status >= 400 {
			errors.Inc()
			s.logger.Debug("request failed", "endpoint", endpoint, "status", rec.status, "url", r.URL.String())
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// contentTypeOf returns the request's media type, lowercased and stripped
// of parameters ("text/plain; charset=utf-8" → "text/plain").
func contentTypeOf(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.ToLower(strings.TrimSpace(ct))
}

// addScratch is the pooled per-request working set of the text /add path:
// the parse batch and the scanner's token buffer.
type addScratch struct {
	batch []float64
	scan  []byte
}

var addPool = sync.Pool{New: func() any {
	return &addScratch{batch: make([]float64, 0, 4096), scan: make([]byte, 1<<16)}
}}

// ingestPool pools the binary slab decoders (frame scratch + element slice).
var ingestPool = sync.Pool{New: func() any { return new(codec.IngestDecoder) }}

// keyedIngestPool pools the keyed slab decoders (key + frame scratch).
var keyedIngestPool = sync.Pool{New: func() any { return new(codec.KeyedIngestDecoder) }}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	switch ct := contentTypeOf(r); ct {
	case "", "text/plain", "application/x-www-form-urlencoded", "application/octet-stream":
		// Text bodies under their usual labels.
	case codec.IngestContentType:
		writeError(w, http.StatusUnsupportedMediaType,
			"content type %q: binary slab frames go to POST /v1/ingest", ct)
		return
	default:
		writeError(w, http.StatusUnsupportedMediaType,
			"content type %q: POST /add takes whitespace-separated numbers as text", ct)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	scratch := addPool.Get().(*addScratch)
	defer addPool.Put(scratch)
	reader := ingest.Plain(body, ingest.Options{ScanBuf: scratch.scan})
	var added uint64
	// Batch parsed values and feed them through the sketch's bulk path —
	// one shard-lock acquisition per batch instead of per value.
	batch := scratch.batch[:0]
	flush := func() {
		s.ing.AddAll(batch)
		added += uint64(len(batch))
		batch = batch[:0]
	}
	err := reader.Drain(func(v float64) {
		batch = append(batch, v)
		if len(batch) == cap(batch) {
			flush()
		}
	})
	flush() // values parsed before an error are still accepted
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"body exceeds %d bytes (accepted %d values; split the load into smaller requests)", tooBig.Limit, added)
			return
		}
		writeError(w, http.StatusBadRequest, "parsing body after %d values: %v", added, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"added": added, "total": s.ing.Count()})
}

// handleIngest is the wire-speed binary path: a body of slab frames
// (internal/codec ingest format) decoded with pooled scratch, each frame
// handed to the sketch's bulk path in one AddAll. Frames decoded before an
// error are already ingested and are reported in the error body.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if ct := contentTypeOf(r); ct != codec.IngestContentType {
		writeError(w, http.StatusUnsupportedMediaType,
			"content type %q: POST /v1/ingest takes %s", ct, codec.IngestContentType)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := ingestPool.Get().(*codec.IngestDecoder)
	defer ingestPool.Put(dec)
	dec.Reset(body)
	var added, frames uint64
	for {
		vals, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					"body exceeds %d bytes (accepted %d values in %d frames; split the load into smaller requests)",
					tooBig.Limit, added, frames)
				return
			}
			writeError(w, http.StatusBadRequest, "frame %d (after %d values): %v", frames+1, added, err)
			return
		}
		s.ing.AddAll(vals)
		added += uint64(len(vals))
		frames++
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"added": added, "frames": frames, "total": s.ing.Count()})
}

// keyedErrStatus maps keyed-store errors to HTTP statuses: a full store in
// Reject mode is the caller's backpressure signal (429), an unknown or
// evicted key is a 404, a windowed query the store cannot satisfy (windows
// disabled, or a duration beyond the configured span) is the caller's
// request to fix (400), and anything else (an empty key's query, an empty
// window) is the usual 409 conflict.
func keyedErrStatus(err error) int {
	switch {
	case errors.Is(err, quantile.ErrGroupLimit):
		return http.StatusTooManyRequests
	case errors.Is(err, quantile.ErrKeyNotFound):
		return http.StatusNotFound
	case errors.Is(err, keyed.ErrWindowDisabled), errors.Is(err, keyed.ErrWindowRange):
		return http.StatusBadRequest
	default:
		return http.StatusConflict
	}
}

// handleKeyedIngest is the multi-tenant wire path: a body of keyed slab
// frames, each routed to its key's sketch through the store's borrowed-key
// bulk path (no string materialization for resident keys). Frames decoded
// before an error are already ingested and are reported in the error body.
func (s *Server) handleKeyedIngest(w http.ResponseWriter, r *http.Request) {
	if s.keyed == nil {
		writeError(w, http.StatusNotImplemented,
			"keyed ingest requires an MRL99 server (engine servers have no keyed store)")
		return
	}
	if ct := contentTypeOf(r); ct != codec.KeyedIngestContentType {
		writeError(w, http.StatusUnsupportedMediaType,
			"content type %q: POST /v1/ingest/keyed takes %s", ct, codec.KeyedIngestContentType)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := keyedIngestPool.Get().(*codec.KeyedIngestDecoder)
	defer keyedIngestPool.Put(dec)
	dec.Reset(body)
	var added, frames uint64
	for {
		key, vals, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					"body exceeds %d bytes (accepted %d values in %d frames; split the load into smaller requests)",
					tooBig.Limit, added, frames)
				return
			}
			writeError(w, http.StatusBadRequest, "frame %d (after %d values): %v", frames+1, added, err)
			return
		}
		if err := keyed.AddAllBytes(s.keyed, key, vals); err != nil {
			writeError(w, keyedErrStatus(err), "frame %d (after %d values in %d frames): %v", frames+1, added, frames, err)
			return
		}
		added += uint64(len(vals))
		frames++
	}
	writeJSON(w, http.StatusOK, map[string]uint64{
		"added": added, "frames": frames, "keys": uint64(s.keyed.Keys()),
	})
}

// windowParam resolves the optional window= parameter in the context of
// its key= sibling: a windowed query needs a key (per-key rings are the
// only windowed state) and a strictly valid positive duration. The second
// return is false when the handler has already written an error response.
func (s *Server) windowParam(w http.ResponseWriter, r *http.Request, key string) (time.Duration, bool) {
	raw := r.URL.Query().Get("window")
	if raw == "" {
		return 0, true
	}
	d, err := parseWindow(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return 0, false
	}
	if key == "" {
		writeError(w, http.StatusBadRequest, "window=%s requires key= (only keyed streams carry window rings)", d)
		return 0, false
	}
	return d, true
}

func (s *Server) handleQuantile(w http.ResponseWriter, r *http.Request) {
	phis, err := parsePhiList(r.URL.Query().Get("phi"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := r.URL.Query().Get("key")
	window, ok := s.windowParam(w, r, key)
	if !ok {
		return
	}
	if key != "" {
		if s.keyed == nil {
			writeError(w, http.StatusNotImplemented,
				"keyed queries require an MRL99 server (engine servers have no keyed store)")
			return
		}
		var vals []float64
		var err error
		if window > 0 {
			vals, err = s.keyed.WindowQuantiles(key, window, phis)
		} else {
			vals, err = s.keyed.Quantiles(key, phis)
		}
		if err != nil {
			writeError(w, keyedErrStatus(err), "%v", err)
			return
		}
		out := make(map[string]any, len(phis)+2)
		out["key"] = key
		if window > 0 {
			out["window"] = window.String()
		}
		for i, phi := range phis {
			out[strconv.FormatFloat(phi, 'g', -1, 64)] = vals[i]
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	vals, err := s.ing.Quantiles(phis)
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

func (s *Server) handleCDF(w http.ResponseWriter, r *http.Request) {
	v, err := parseFiniteFloat("v", r.URL.Query().Get("v"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := r.URL.Query().Get("key")
	window, ok := s.windowParam(w, r, key)
	if !ok {
		return
	}
	if key != "" {
		if s.keyed == nil {
			writeError(w, http.StatusNotImplemented,
				"keyed queries require an MRL99 server (engine servers have no keyed store)")
			return
		}
		var frac float64
		var err error
		if window > 0 {
			frac, err = s.keyed.WindowCDF(key, window, v)
		} else {
			frac, err = s.keyed.CDF(key, v)
		}
		if err != nil {
			writeError(w, keyedErrStatus(err), "%v", err)
			return
		}
		out := map[string]any{"key": key, "v": v, "cdf": frac}
		if window > 0 {
			out["window"] = window.String()
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	frac, err := s.ing.CDF(v)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]float64{"v": v, "cdf": frac})
}

func (s *Server) handleHistogram(w http.ResponseWriter, r *http.Request) {
	buckets, err := parseBucketCount(r.URL.Query().Get("buckets"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	phis := make([]float64, buckets-1)
	for i := range phis {
		phis[i] = float64(i+1) / float64(buckets)
	}
	bounds, err := s.ing.Quantiles(phis)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"buckets":    buckets,
		"boundaries": bounds,
		"rows":       s.ing.Count(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"engine":          s.ing.EngineName(),
		"count":           s.ing.Count(),
		"memory_elements": s.ing.MemoryElements(),
		"eps":             s.ing.Epsilon(),
		"delta":           s.ing.Delta(),
		"uptime_seconds":  time.Since(s.start).Seconds(),
	}
	if c := s.Sketch(); c != nil {
		b, k, h := c.Layout()
		hits, misses, rebuilds := c.ViewStats()
		out["shards"] = c.Shards()
		out["layout"] = map[string]int{"b": b, "k": k, "h": h}
		out["view_cache"] = map[string]any{
			"hits": hits, "misses": misses, "rebuilds": rebuilds,
			"rebuild_seconds": c.ViewRebuildSeconds(),
		}
	}
	if s.keyed != nil {
		ks := s.keyed.Stats()
		kout := map[string]any{
			"keys":                  ks.Keys,
			"created":               ks.Created,
			"evicted_lru":           ks.EvictedLRU,
			"evicted_ttl":           ks.EvictedTTL,
			"rejected":              ks.Rejected,
			"total_count":           s.keyed.TotalCount(),
			"memory_elements":       s.keyed.MemoryElements(),
			"memory_bound_elements": s.keyed.MemoryBoundElements(),
			"per_key_bound":         s.keyed.PerKeyMemoryBound(),
		}
		if s.keyed.Windowed() {
			kout["window"] = map[string]any{
				"width_seconds": s.keyed.WindowWidth().Seconds(),
				"epochs":        s.keyed.WindowEpochs(),
				"span_seconds":  s.keyed.WindowSpan().Seconds(),
				"rotations":     ks.WindowRotations,
				"rebuilds":      ks.WindowRebuilds,
			}
		}
		out["keyed"] = kout
	}
	writeJSON(w, http.StatusOK, out)
}
