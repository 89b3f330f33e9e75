package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	quantile "repro"
	"repro/cluster"
	"repro/cluster/agg"
	"repro/httpapi"
	"repro/internal/codec"
	"repro/internal/keyed"
)

// The traced run replays a workload's seeded request sequence on one
// connection per server against in-process httpapi, cluster and agg
// instances built with quantiled's configuration and served on loopback by
// this process. Each server's handler is wrapped to record a handler span;
// after every response, outside every span, the replay calls the child
// layers' public functions on identical inputs on shadow instances:
//
//   - replicas mirror the path under test (same config, same inputs) and
//     give the child time a handler span is made of, so
//     transport = client span − handler span and
//     handler self = handler span − replica child time;
//   - probes time every layer's public function on this workload's frames,
//     whether or not the workload's path crosses that layer, so every
//     per-layer metric exists on every workload.
//
// Self times telescope to the client spans, so what the replay's wall time
// (less the shadow work) holds beyond them is the generator's own time:
// trace.unattributed_frac. The same sequence replayed without wrappers or
// shadows gives trace.overhead_frac.

// epochElems is how many ingested elements make one tree epoch in the
// replay: 500 ms of ship interval at the open loops' 8 Melem/s.
const epochElems = 4 << 20

// rebuildElems is the probe spacing of the view-rebuild probes.
const rebuildElems = 256 << 10

// probeWindow is the window span of the windowed rebuild probe. Ring views
// are cached per span, and no workload queries this one, so on a store the
// replay also queries the probe never warms a view a replayed query reads.
const probeWindow = 2 * time.Second

// spanSink collects the handler spans of one in-process server. The replay
// is sequential, so the spans it holds belong to the call just made.
type spanSink struct {
	mu     sync.Mutex
	total  time.Duration
	bodies [][]byte
}

func (s *spanSink) take() (time.Duration, [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, b := s.total, s.bodies
	s.total, s.bodies = 0, nil
	return t, b
}

// wrap times every request h serves. Shipment bodies are copied first,
// outside the span, so a replica can merge the same envelope.
func (s *spanSink) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body []byte
		if r.URL.Path == cluster.ShipPath {
			body, _ = io.ReadAll(r.Body) // a short body fails in the handler itself
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		s.mu.Lock()
		s.total += d
		if body != nil {
			s.bodies = append(s.bodies, body)
		}
		s.mu.Unlock()
	})
}

// served is an in-process HTTP server on loopback.
type served struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *served) close() {
	_ = s.srv.Close()
	<-s.done
}

// newIngestServer mirrors quantiled's mrl99 ingest surface for the
// workload's flags.
func newIngestServer(w *workload, seed uint64, kc httpapi.KeyedConfig) (*httpapi.Server, error) {
	srv, err := httpapi.New(w.nodeEps(), delta, 0, quantile.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	kc.Seed = seed
	return srv, srv.SetKeyed(kc)
}

// workloadKeyed is the keyed store the workload's quantiled runs: the
// default one, or -keys-max 512 -window 10s -window-epochs 10.
func workloadKeyed(w *workload) httpapi.KeyedConfig {
	if w.topo != keyedStore {
		return httpapi.KeyedConfig{}
	}
	return capped(true)
}

// capped is a store of at most keysMax keys, windowed like keyedStore
// workloads when asked.
func capped(windowed bool) httpapi.KeyedConfig {
	kc := httpapi.KeyedConfig{MaxKeys: keysMax}
	if windowed {
		kc.Window, kc.WindowEpochs = windowSpan, windowEpochs
	}
	return kc
}

// path is the in-process topology under test.
type path struct {
	srv      *httpapi.Server // standalone server, or the tree's worker surface
	worker   *cluster.Worker // tree: cuts srv's sketch and ships it to agg
	agg      *agg.Aggregator
	root     *cluster.Coordinator
	servers  []*served
	ingest   *sender
	query    *sender
	sinks    map[string]*spanSink // by node; nil when untraced
	rootData bool                 // tree: the root has merged an epoch
}

func newPath(w *workload, p *pool, seed uint64, traced bool) (*path, error) {
	pt := &path{}
	if traced {
		pt.sinks = map[string]*spanSink{"ingest": {}, "agg": {}, "root": {}}
	}
	start := func(name string, h http.Handler) (*served, error) {
		if traced {
			h = pt.sinks[name].wrap(h)
		}
		s, err := serve(h)
		if err == nil {
			pt.servers = append(pt.servers, s)
		}
		return s, err
	}
	var err error
	if pt.srv, err = newIngestServer(w, seed, workloadKeyed(w)); err != nil {
		return nil, err
	}
	in, err := start("ingest", pt.srv.Handler())
	if err != nil {
		return nil, err
	}
	hc := newClient()
	pt.ingest = newSender(hc, in.url, w, p)
	pt.query = pt.ingest
	if w.topo != tree {
		return pt, nil
	}
	if pt.root, err = cluster.NewCoordinator(cluster.CoordinatorConfig{Eps: w.nodeEps(), Delta: delta, Seed: seed}); err != nil {
		return nil, err
	}
	rs, err := start("root", pt.root.Handler())
	if err != nil {
		return nil, err
	}
	if pt.agg, err = agg.New(agg.Config{ID: "a0", Level: 1, Eps: w.nodeEps(), Delta: delta, ParentURL: rs.url, Seed: seed}); err != nil {
		return nil, err
	}
	as, err := start("agg", pt.agg.Handler())
	if err != nil {
		return nil, err
	}
	if pt.worker, err = cluster.NewWorker(pt.srv.Sketch(), cluster.WorkerConfig{ID: "w0", CoordinatorURL: as.url}); err != nil {
		return nil, err
	}
	pt.query = newSender(hc, rs.url, w, p)
	return pt, nil
}

func (pt *path) close() {
	pt.ingest.hc.CloseIdleConnections()
	for _, s := range pt.servers {
		s.close()
	}
}

// sink is the span sink of the server that answers req.
func (pt *path) sink(req request) *spanSink {
	if pt.root != nil && !req.kind.ingest() {
		return pt.sinks["root"]
	}
	return pt.sinks["ingest"]
}

// tracer holds a traced replay's shadows and accounting.
type tracer struct {
	w    *workload
	pool *pool
	rep  *httpapi.Server      // replica of the path's ingest surface
	repA *cluster.Coordinator // replica of the aggregator's merge state
	repR *cluster.Coordinator // replica of the root
	pr   *probes
	dec  codec.IngestDecoder
	kdec codec.KeyedIngestDecoder
	kbuf []byte

	shadow     time.Duration // wall time spent outside the path, in shadows
	spans      time.Duration // top-level spans: client spans and epoch cycles
	transport  time.Duration
	ingestSelf time.Duration
	querySelf  time.Duration
	requests   int
	queries    int
	elems      int64
}

func newTracer(w *workload, p *pool, seed uint64) (*tracer, error) {
	tr := &tracer{w: w, pool: p}
	var err error
	if tr.rep, err = newIngestServer(w, seed, workloadKeyed(w)); err != nil {
		return nil, err
	}
	if w.topo == tree {
		cfg := cluster.CoordinatorConfig{Eps: w.nodeEps(), Delta: delta, Seed: seed}
		if tr.repR, err = cluster.NewCoordinator(cfg); err != nil {
			return nil, err
		}
		cfg.Level = 1
		if tr.repA, err = cluster.NewCoordinator(cfg); err != nil {
			return nil, err
		}
	}
	tr.pr, err = newProbes(w, p, seed, tr.rep)
	return tr, err
}

func (tr *tracer) close() { tr.pr.close() }

// replicaIngest repeats an ingest request's decode and sketch update on the
// replica and returns their times together with the decoded elements.
func (tr *tracer) replicaIngest(req request, key []byte) (decode, sink time.Duration, vals []float64, err error) {
	if req.kind == ingestFlat {
		tr.dec.Reset(bytes.NewReader(tr.pool.flat[req.frame]))
		start := time.Now()
		if vals, err = tr.dec.Next(); err != nil {
			return 0, 0, nil, err
		}
		decode = time.Since(start)
		tr.rep.Sketch().AddAll(vals)
		return decode, time.Since(start) - decode, vals, nil
	}
	tr.kbuf = tr.pool.keyedFrame(tr.kbuf, key, req.frame)
	tr.kdec.Reset(bytes.NewReader(tr.kbuf))
	start := time.Now()
	k, vals, err := tr.kdec.Next()
	if err != nil {
		return 0, 0, nil, err
	}
	decode = time.Since(start)
	err = keyed.AddAllBytes(tr.rep.Keyed(), k, vals)
	return decode, time.Since(start) - decode, vals, err
}

// replicaQuery repeats a query on the replica of the node that served it.
func (tr *tracer) replicaQuery(req request, key int) (time.Duration, error) {
	start := time.Now()
	var err error
	switch {
	case tr.repR != nil:
		_, err = tr.repR.Quantiles(phis)
	case req.kind == queryFlat:
		_, err = tr.rep.Sketch().Quantiles(phis)
	case req.kind == queryKeyed:
		_, err = tr.rep.Keyed().Quantiles(keyName(key), phis)
	default:
		_, err = tr.rep.Keyed().WindowQuantiles(keyName(key), tr.w.window, phis)
	}
	return time.Since(start), err
}

// replicaMerge merges captured shipment bodies into a replica coordinator
// and returns the merge time.
func replicaMerge(c *cluster.Coordinator, bodies [][]byte) (time.Duration, error) {
	var total time.Duration
	for _, b := range bodies {
		var env cluster.Envelope
		if err := json.Unmarshal(b, &env); err != nil {
			return 0, fmt.Errorf("captured shipment: %w", err)
		}
		start := time.Now()
		status, res := c.Ingest(env)
		total += time.Since(start)
		if status != http.StatusOK {
			return 0, fmt.Errorf("replica merge: %d %s", status, res.Error)
		}
	}
	return total, nil
}

// replay runs one workload sequence against a fresh path. With a tracer it
// records spans and shadows; without one it measures the bare path.
type replay struct {
	w       *workload
	pool    *pool
	pt      *path
	tr      *tracer
	seq     func() request
	acked   *ingested
	elems   int64
	epochAt int64
	wall    time.Duration
}

// newSequence is the replay's request order: a closed loop's two ingest
// streams alternate with a query every eighth item; an open loop's ingest
// and query streams merge by due time.
func newSequence(w *workload, seed uint64) func() request {
	in, q := newSource(w, seed, 0, true), newSource(w, seed, 1, false)
	if w.closed {
		in2 := newSource(w, seed, 1, true)
		i := 0
		return func() request {
			switch i++; {
			case i%8 == 0:
				return q.next()
			case i%2 == 0:
				return in2.next()
			}
			return in.next()
		}
	}
	qEvery := time.Duration(float64(time.Second) / w.qps)
	var inDue, qDue time.Duration
	return func() request {
		if qDue < inDue {
			qDue += qEvery
			return q.next()
		}
		inDue += w.interval()
		return in.next()
	}
}

// run replays sequence items until limit items (when positive) or, with a
// budget, until the wall time reaches it; it returns the items consumed.
func (rp *replay) run(ctx context.Context, limit int, budget time.Duration) (int, error) {
	start := time.Now()
	items := 0
	for ; ctx.Err() == nil; items++ {
		if limit > 0 && items >= limit || budget > 0 && time.Since(start) >= budget {
			break
		}
		req := rp.seq()
		key := req.key
		if !req.kind.ingest() {
			var ok bool
			if rp.w.topo == tree {
				ok = rp.pt.rootData
			} else {
				key, ok = rp.acked.resolve(req)
			}
			if !ok {
				continue
			}
		}
		if err := rp.step(ctx, req, key); err != nil {
			return items, err
		}
	}
	if err := rp.finish(ctx); err != nil {
		return items, err
	}
	rp.wall = time.Since(start)
	return items, ctx.Err()
}

// step sends one request on the path, then (traced) attributes it.
func (rp *replay) step(ctx context.Context, req request, key int) error {
	s := rp.pt.ingest
	if !req.kind.ingest() {
		s = rp.pt.query
	}
	start := time.Now()
	if err := s.send(ctx, req, key); err != nil {
		return fmt.Errorf("replay %s: %w", opName(req.kind), err)
	}
	client := time.Since(start)
	if req.kind.ingest() {
		rp.acked.ack(rec{req: req, key: key})
		rp.elems += int64(rp.pool.elems)
	}
	if tr := rp.tr; tr != nil {
		handler, _ := rp.pt.sink(req).take()
		tr.spans += client
		tr.transport += client - handler
		tr.requests++
		shadow := time.Now()
		if req.kind.ingest() {
			kb := []byte("probe")
			if req.kind == ingestKeyed {
				kb = s.keys[key]
			}
			decode, sink, vals, err := tr.replicaIngest(req, kb)
			if err != nil {
				return err
			}
			tr.ingestSelf += handler - decode - sink
			tr.elems += int64(len(vals))
			if err := tr.pr.ingest(ctx, req, kb, vals, sink); err != nil {
				return err
			}
		} else {
			child, err := tr.replicaQuery(req, key)
			if err != nil {
				return err
			}
			tr.querySelf += handler - child
			tr.queries++
		}
		tr.shadow += time.Since(shadow)
	}
	if rp.pt.worker != nil && rp.elems >= rp.epochAt {
		rp.epochAt += epochElems
		return rp.epoch(ctx)
	}
	return nil
}

// epoch runs one tree ship cycle on the path: the worker cuts and ships to
// the aggregator, which cuts and ships to the root.
func (rp *replay) epoch(ctx context.Context) error {
	start := time.Now()
	if err := rp.pt.worker.ShipOnce(ctx); err != nil {
		return fmt.Errorf("worker ship: %w", err)
	}
	if err := rp.pt.agg.ShipOnce(ctx); err != nil {
		return fmt.Errorf("aggregator ship: %w", err)
	}
	cycle := time.Since(start)
	rp.pt.rootData = rp.pt.root.Count() > 0
	tr := rp.tr
	if tr == nil {
		return nil
	}
	tr.spans += cycle
	_, aggBodies := rp.pt.sinks["agg"].take()
	_, rootBodies := rp.pt.sinks["root"].take()
	shadow := time.Now()
	defer func() { tr.shadow += time.Since(shadow) }()
	// The worker's sketch starts every epoch empty; so does its replica's.
	if _, _, err := tr.rep.Sketch().ShipAndReset(quantile.Float64Codec()); err != nil {
		return err
	}
	if _, err := replicaMerge(tr.repA, aggBodies); err != nil {
		return err
	}
	_, err := replicaMerge(tr.repR, rootBodies)
	return err
}

// finish drains a tree and makes the quiescent queries every live run
// makes, on a smaller scale.
func (rp *replay) finish(ctx context.Context) error {
	if rp.pt.worker != nil {
		if err := rp.epoch(ctx); err != nil {
			return err
		}
	}
	if rp.tr != nil {
		shadow := time.Now()
		if err := rp.tr.pr.final(ctx); err != nil {
			return err
		}
		rp.tr.shadow += time.Since(shadow)
	}
	var plan []request
	switch {
	case rp.w.topo == tree || rp.w.keyedShare == 0:
		for i := 0; i < 50; i++ {
			plan = append(plan, request{kind: queryFlat})
		}
	default:
		for k := 0; k < rp.w.keys && len(plan) < 50; k++ {
			if rp.acked.keys[k].Load() && rp.pt.srv.Keyed().Contains(keyName(k)) {
				plan = append(plan, request{kind: queryKeyed, key: k}, request{kind: queryWindow, key: k})
			}
		}
		if rp.w.keyedShare < 1 {
			plan = append(plan, request{kind: queryFlat})
		}
	}
	for _, req := range plan {
		if err := rp.step(ctx, req, req.key); err != nil {
			return err
		}
	}
	return nil
}

// runTrace makes the traced replay for about budget of wall time, then the
// same sequence untraced, and derives the per-layer metrics. It also
// returns the host probe's median over the traced replay.
func runTrace(ctx context.Context, w *workload, p *pool, seed uint64, budget time.Duration) (map[string]float64, float64, error) {
	// The replay holds the path's stores and their replicas in this one
	// process; on keyed-window that is two 512-key ring stores under LRU
	// churn. A tighter GC target keeps the heap near its live size.
	defer debug.SetGCPercent(debug.SetGCPercent(40))
	probeCtx, stopProbe := context.WithCancel(ctx)
	probed := make(chan float64, 1)
	go func() { probed <- probeHost(probeCtx, 0) }()
	traced, err := replayOnce(ctx, w, p, seed, true, 0, budget)
	stopProbe()
	probeUs := <-probed
	if err != nil {
		return nil, 0, err
	}
	runtime.GC()
	bare, err := replayOnce(ctx, w, p, seed, false, traced.items, 0)
	if err != nil {
		return nil, 0, err
	}
	tr := traced.tr
	active := traced.wall - tr.shadow
	out := tr.pr.metrics()
	out["transport.us_per_req"] = us(tr.transport) / float64(max(tr.requests, 1))
	out["httpapi.ingest_self_ns_per_elem"] = float64(tr.ingestSelf) / float64(max(tr.elems, 1))
	out["httpapi.query_self_us"] = us(tr.querySelf) / float64(max(tr.queries, 1))
	out["trace.unattributed_frac"] = float64(active-tr.spans) / float64(active)
	out["trace.overhead_frac"] = float64(active-bare.wall) / float64(bare.wall)
	return out, probeUs, nil
}

type replayResult struct {
	items int
	wall  time.Duration
	tr    *tracer
}

func replayOnce(ctx context.Context, w *workload, p *pool, seed uint64, traced bool, limit int, budget time.Duration) (*replayResult, error) {
	pt, err := newPath(w, p, seed, traced)
	if err != nil {
		return nil, err
	}
	defer pt.close()
	rp := &replay{w: w, pool: p, pt: pt, seq: newSequence(w, seed), acked: newIngested(max(w.keys, 1), w.queryKeys), epochAt: epochElems}
	if traced {
		if rp.tr, err = newTracer(w, p, seed); err != nil {
			return nil, err
		}
		defer rp.tr.close()
	}
	items, err := rp.run(ctx, limit, budget)
	if err != nil {
		return nil, err
	}
	return &replayResult{items: items, wall: rp.wall, tr: rp.tr}, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probes time each layer's public function on the workload's frames, on
// instances of their own that no request path reads.
type probes struct {
	w     *workload
	pool  *pool
	flat  *quantile.Concurrent[float64]
	plain *keyed.Store[string, float64]
	// win is a windowed store. On a workload whose server runs one it is
	// the replica's, which holds the same keys and frames already: a second
	// 512-key ring store would double the trace's largest memory cost.
	win    *keyed.Store[string, float64]
	shared bool // win is the replica's
	tree0  *quantile.Concurrent[float64]
	ship   *cluster.HTTPTransport
	merge  *cluster.Coordinator
	agg    *agg.Aggregator
	root   *cluster.Coordinator
	srvs   []*served

	dec  codec.IngestDecoder
	kdec codec.KeyedIngestDecoder
	kbuf []byte

	epoch              uint64
	elems              int64
	rebuildAt, epochAt int64
	key                string
	sums, counts       map[string]float64
}

func newProbes(w *workload, p *pool, seed uint64, replica *httpapi.Server) (*probes, error) {
	pr := &probes{w: w, pool: p, rebuildAt: rebuildElems, epochAt: epochElems,
		sums: map[string]float64{}, counts: map[string]float64{}}
	plain, err := newIngestServer(w, seed, capped(false))
	if err != nil {
		return nil, err
	}
	pr.flat, pr.plain, pr.win, pr.shared = plain.Sketch(), plain.Keyed(), replica.Keyed(), true
	if !replica.Keyed().Windowed() {
		pr.shared = false
		win, err := newIngestServer(w, seed, capped(true))
		if err != nil {
			return nil, err
		}
		pr.win = win.Keyed()
	}
	eps := w.nodeEps()
	if pr.tree0, err = quantile.NewConcurrent[float64](eps, delta, 0, quantile.WithSeed(seed)); err != nil {
		return nil, err
	}
	cfg := cluster.CoordinatorConfig{Eps: eps, Delta: delta, Seed: seed, Level: 1}
	sink, err := cluster.NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	if pr.merge, err = cluster.NewCoordinator(cfg); err != nil {
		return nil, err
	}
	cfg.Level = 0
	if pr.root, err = cluster.NewCoordinator(cfg); err != nil {
		return nil, err
	}
	for _, c := range []*cluster.Coordinator{sink, pr.root} {
		s, err := serve(c.Handler())
		if err != nil {
			pr.close()
			return nil, err
		}
		pr.srvs = append(pr.srvs, s)
	}
	pr.ship = &cluster.HTTPTransport{BaseURL: pr.srvs[0].url, Client: newClient()}
	pr.agg, err = agg.New(agg.Config{ID: "probe-a", Level: 1, Eps: eps, Delta: delta,
		ParentURL: pr.srvs[1].url, Seed: seed, Client: newClient()})
	if err != nil {
		pr.close()
	}
	return pr, err
}

func (pr *probes) close() {
	for _, s := range pr.srvs {
		s.close()
	}
}

func (pr *probes) add(name string, v float64) {
	pr.sums[name] += v
	pr.counts[name]++
}

func (pr *probes) timeIt(name string, f func() error) error {
	start := time.Now()
	err := f()
	pr.add(name, float64(time.Since(start)))
	return err
}

// ingest times decode and every ingest sink on one request's elements.
// sink is the replica's update time, which is the windowed store's when
// the replica's store is the probes' and the frame was keyed.
func (pr *probes) ingest(ctx context.Context, req request, key []byte, vals []float64, sink time.Duration) error {
	frame := req.frame
	pr.dec.Reset(bytes.NewReader(pr.pool.flat[frame]))
	if err := pr.timeIt("decode", func() error { _, err := pr.dec.Next(); return err }); err != nil {
		return err
	}
	pr.kbuf = pr.pool.keyedFrame(pr.kbuf, key, frame)
	pr.kdec.Reset(bytes.NewReader(pr.kbuf))
	if err := pr.timeIt("keyed_decode", func() error { _, _, err := pr.kdec.Next(); return err }); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = pr.timeIt("addall", func() error { pr.flat.AddAll(vals); return nil })
	runtime.ReadMemStats(&after)
	pr.add("allocs", float64(after.Mallocs-before.Mallocs))
	if err := pr.timeIt("keyed", func() error { return keyed.AddAllBytes(pr.plain, key, vals) }); err != nil {
		return err
	}
	if req.kind == ingestKeyed && pr.shared {
		pr.add("windowed", float64(sink))
	} else if err := pr.timeIt("windowed", func() error { return keyed.AddAllBytes(pr.win, key, vals) }); err != nil {
		return err
	}
	pr.tree0.AddAll(vals)
	pr.elems += int64(len(vals))
	pr.key = string(key)
	if pr.elems >= pr.rebuildAt {
		pr.rebuildAt += rebuildElems
		if err := pr.rebuild(); err != nil {
			return err
		}
	}
	if pr.elems >= pr.epochAt {
		pr.epochAt += epochElems
		return pr.shipEpoch(ctx)
	}
	return nil
}

// rebuild times each query view right after a mutation, then warm.
func (pr *probes) rebuild() error {
	steps := []struct {
		name string
		f    func() error
	}{
		{"view.rebuild_us", func() error { _, err := pr.flat.Quantiles(phis); return err }},
		{"view.cached_ns", func() error { _, err := pr.flat.Quantiles(phis); return err }},
		{"keyed.query_rebuild_us", func() error { _, err := pr.plain.Quantiles(pr.key, phis); return err }},
		{"window.query_rebuild_us", func() error {
			_, err := pr.win.WindowQuantiles(pr.key, probeWindow, phis)
			return err
		}},
	}
	for _, s := range steps {
		if err := pr.timeIt(s.name, s.f); err != nil {
			return fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	return nil
}

// shipEpoch times one epoch through a probe tree: cut, ship over HTTP to a
// coordinator, merge into another, re-ship through an aggregator, and the
// root's view rebuild.
func (pr *probes) shipEpoch(ctx context.Context) error {
	var blob []byte
	var n uint64
	if err := pr.timeIt("cluster.cut_us", func() (err error) {
		blob, n, err = pr.tree0.ShipAndReset(quantile.Float64Codec())
		return err
	}); err != nil || n == 0 {
		return err
	}
	pr.epoch++
	env := cluster.Envelope{Worker: "probe-w", Epoch: pr.epoch, Eps: pr.w.nodeEps(), Delta: delta, Count: n, Blob: blob}
	body, err := json.Marshal(env)
	if err != nil {
		return err
	}
	pr.add("cluster.ship_bytes_per_epoch", float64(len(body)))
	steps := []struct {
		name string
		f    func() error
	}{
		{"cluster.ship_us", func() error { _, err := pr.ship.Ship(ctx, env); return err }},
		{"cluster.merge_us", func() error { return accepted(pr.merge.Ingest(env)) }},
		{"agg.reship_us", func() error {
			if err := accepted(pr.agg.Ingest(env)); err != nil {
				return err
			}
			return pr.agg.ShipOnce(ctx)
		}},
		{"cluster.view_rebuild_us", func() error { _, err := pr.root.Quantiles(phis); return err }},
	}
	for _, s := range steps {
		if err := pr.timeIt(s.name, s.f); err != nil {
			return fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	return nil
}

func accepted(status int, res cluster.ShipResult) error {
	if status != http.StatusOK {
		return fmt.Errorf("shipment refused: %d %s", status, res.Error)
	}
	return nil
}

// final makes sure every probe has at least one sample, however short the
// replay was.
func (pr *probes) final(ctx context.Context) error {
	if pr.counts["view.rebuild_us"] == 0 && pr.key != "" {
		if err := pr.rebuild(); err != nil {
			return err
		}
	}
	if pr.counts["cluster.merge_us"] == 0 {
		return pr.shipEpoch(ctx)
	}
	return nil
}

func (pr *probes) metrics() map[string]float64 {
	elems := float64(max(pr.elems, 1))
	mean := func(name string) float64 { return pr.sums[name] / max(pr.counts[name], 1) }
	out := map[string]float64{
		"codec.decode_ns_per_elem":       pr.sums["decode"] / elems,
		"codec.keyed_decode_ns_per_elem": pr.sums["keyed_decode"] / elems,
		"quantile.addall_ns_per_elem":    pr.sums["addall"] / elems,
		"quantile.allocs_per_kelem":      pr.sums["allocs"] / (elems / 1000),
		"keyed.addall_ns_per_elem":       pr.sums["keyed"] / elems,
		"window.dual_write_ns_per_elem":  (pr.sums["windowed"] - pr.sums["keyed"]) / elems,
		"view.cached_ns":                 mean("view.cached_ns"),
		"cluster.ship_bytes_per_epoch":   mean("cluster.ship_bytes_per_epoch"),
	}
	for _, name := range []string{"view.rebuild_us", "keyed.query_rebuild_us", "window.query_rebuild_us",
		"cluster.cut_us", "cluster.ship_us", "cluster.merge_us", "cluster.view_rebuild_us", "agg.reship_us"} {
		out[name] = mean(name) / float64(time.Microsecond)
	}
	return out
}
