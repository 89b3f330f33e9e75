package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/keyed"
)

// setupReps is how many times a run spawns its topology; setup_s is the
// median, and the last set of processes carries the load.
const setupReps = 5

// live is one run against real quantiled processes on loopback.
type live struct {
	w       *workload
	pool    *pool
	topo    *topo
	base    time.Time
	warm    time.Duration
	measure time.Duration
	setups  []time.Duration
	// ingest and queries hold every load operation, warm-up included;
	// quiet holds the queries made at quiescence, all verified.
	ingest, queries, quiet []rec
	attempted, failed      int
	notes                  []string
	rssMiB                 float64
	probeUs                float64
	before, after          map[string]promSample
}

func (l *live) fail(format string, args ...any) {
	l.failed++
	if len(l.notes) < 5 {
		l.notes = append(l.notes, fmt.Sprintf(format, args...))
	}
}

// runLive spawns the workload's topology, drives warm+measure of load,
// verifies every answer at quiescence and reads the servers' peak memory.
// With scrapeMetrics it also reads every node's /metrics before and after.
func runLive(ctx context.Context, bin string, w *workload, p *pool, seed uint64, warm, measure time.Duration, scrapeMetrics bool) (*live, error) {
	l := &live{w: w, pool: p, warm: warm, measure: measure}
	for i := 0; i < setupReps; i++ {
		t, d, err := startTopo(ctx, bin, w, seed)
		if err != nil {
			return nil, err
		}
		l.setups = append(l.setups, d)
		if i < setupReps-1 {
			t.stop()
			continue
		}
		l.topo = t
	}
	defer l.topo.stop()

	ctl := newClient()
	defer ctl.CloseIdleConnections()
	var err error
	if scrapeMetrics {
		if l.before, err = l.scrapeAll(ctx, ctl); err != nil {
			return nil, err
		}
	}
	l.base = time.Now()
	conns := l.conns(ctx, seed)
	recs := make([][]rec, len(conns))
	var wg sync.WaitGroup
	probeCtx, stopProbe := context.WithCancel(ctx)
	probed := make(chan float64, 1)
	go func() { probed <- probeHost(probeCtx, warm) }()
	for i, phases := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, lp := range phases {
				recs[i] = append(recs[i], lp.run(ctx)...)
			}
		}()
	}
	wg.Wait()
	stopProbe()
	l.probeUs = <-probed
	for _, phases := range conns {
		phases[0].s.hc.CloseIdleConnections()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, rs := range recs {
		for _, r := range rs {
			if r.req.kind.ingest() {
				l.ingest = append(l.ingest, r)
			} else {
				l.queries = append(l.queries, r)
			}
			l.attempted++
			if r.err != nil {
				l.fail("%s: %v", opName(r.req.kind), r.err)
			}
		}
	}
	if err := l.topo.exited(); err != nil {
		return nil, err
	}
	l.verify(ctx, conns[len(conns)-1][0].s)
	if err := l.topo.exited(); err != nil {
		return nil, err
	}
	if l.rssMiB, err = l.topo.peakRSSMiB(); err != nil {
		return nil, err
	}
	if scrapeMetrics {
		if l.after, err = l.scrapeAll(ctx, ctl); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func opName(k kind) string {
	return [...]string{"ingest", "keyed ingest", "query", "keyed query", "windowed query"}[k]
}

func (l *live) scrapeAll(ctx context.Context, hc *http.Client) (map[string]promSample, error) {
	out := map[string]promSample{}
	for _, n := range l.topo.nodes {
		s, err := scrape(ctx, hc, n.url())
		if err != nil {
			return nil, err
		}
		out[n.name] = s
	}
	return out, nil
}

// conns builds the generator's two connections, each a sequence of loops
// sharing one sender. Open loops run ingest on connection 0 and queries on
// connection 1 for the whole run. Closed loops measure ingest alone, as
// fast as both connections go, for the first half of the measured time.
// In the second half connection 0 ingests open-loop at the workload's
// rate and connection 1 sends queries. The fixed background load keeps the
// query latency from tracking how hard a closed loop could push, and the
// busy server avoids timing an idle one's wake-ups.
func (l *live) conns(ctx context.Context, seed uint64) [][]*loop {
	w := l.w
	start, end := l.warm, l.warm+l.measure
	mk := func(n *node) *sender { return newSender(newClient(), n.url(), w, l.pool) }
	s0, s1 := mk(l.topo.ingest), mk(l.topo.query)
	// ingest is one ingest phase from `from` to `to`, measured until `until`.
	ingest := func(s *sender, stream int, every, from, to, until time.Duration) *loop {
		return &loop{s: s, base: l.base, start: from, measure: start, until: until, stop: to,
			interval: every, next: newSource(w, seed, stream, true).next}
	}
	q := &loop{s: s1, base: l.base, measure: start, until: end, stop: end,
		interval: time.Duration(float64(time.Second) / w.qps), next: newSource(w, seed, 1, false).next}
	out := [][]*loop{{ingest(s0, 0, w.interval(), 0, end, end)}, {q}}
	if w.closed {
		half := start + l.measure/2
		q.start, q.measure = half, half
		out = [][]*loop{
			{ingest(s0, 0, 0, 0, half, half), ingest(s0, 2, w.interval(), half, end, 0)},
			{ingest(s1, 1, 0, 0, half, half), q},
		}
	}
	if w.topo == tree {
		// The root holds nothing until the first epoch has crossed both
		// hops; query slots before that are skipped.
		ready := false
		q.resolve = func(request) (int, bool) {
			if !ready {
				var st struct {
					Count uint64 `json:"count"`
				}
				ready = getJSON(ctx, q.s.hc, q.s.base+"/stats", &st) == nil && st.Count > 0
			}
			return 0, ready
		}
	} else {
		g := newIngested(max(w.keys, 1), w.queryKeys)
		for _, phases := range out {
			for _, lp := range phases {
				lp.acked = g.ack
			}
		}
		q.resolve = g.resolve
	}
	return out
}

// truth is the oracle's view of what the generator acknowledged: the flat
// stream, and the history of every key verification may query.
type truth struct {
	flat  stream
	keys  []keyHistory
	acked int64
}

func (l *live) truth() truth {
	t := truth{flat: newStream()}
	for _, r := range l.ingest {
		if r.err == nil {
			t.acked += int64(l.pool.elems)
			if r.req.kind == ingestFlat {
				t.flat.add(r.req.frame, l.pool.elems)
			}
		}
	}
	if l.w.keyedShare > 0 {
		t.keys = keyHistories(l.ingest, l.w.keys, 16)
	}
	return t
}

// quietPlan lists the queries made once ingest has stopped, one per
// verifiable stream.
func (l *live) quietPlan(t truth) []request {
	var plan []request
	if t.flat.n > 0 {
		plan = append(plan, request{kind: queryFlat})
	}
	for _, h := range t.keys {
		plan = append(plan, request{kind: queryKeyed, key: h.key}, request{kind: queryWindow, key: h.key})
	}
	if len(plan) == 0 {
		l.fail("no stream is certain to be served; nothing to verify")
	}
	return plan
}

// verify drains a tree to its root, then queries every served stream and
// judges each answer against the exact oracle at the root ε.
func (l *live) verify(ctx context.Context, s *sender) {
	t := l.truth()
	if l.w.topo == tree {
		l.drain(ctx, s, t.acked)
	}
	hist := map[int]keyHistory{}
	for _, h := range t.keys {
		hist[h.key] = h
	}
	o := &oracle{pool: l.pool, eps: rootEps}
	wall := func(d time.Duration) int64 { return l.base.UnixNano() + int64(d) }
	// Answers repeat between mutations; judge each distinct one once.
	judged := map[string]bool{}
	for _, req := range l.quietPlan(t) {
		send := time.Since(l.base)
		err := s.send(ctx, req, req.key)
		done := time.Since(l.base)
		l.quiet = append(l.quiet, rec{req: req, key: req.key, send: send, done: done, latency: done - send, err: err})
		l.attempted++
		if err != nil {
			l.fail("quiescent %s: %v", opName(req.kind), err)
			continue
		}
		vals, err := parseAnswers(s.resp.Bytes())
		if err != nil {
			l.fail("quiescent %s: %v", opName(req.kind), err)
			continue
		}
		width := int64(windowWidth)
		id := fmt.Sprint(req.kind, req.key, wall(send)/width, wall(done)/width, vals)
		ok, seen := judged[id]
		if !seen {
			ok = l.judge(o, t, hist[req.key], req, vals, func(frames []rec) (stream, stream) {
				return windowSplit(frames, l.pool.elems, l.w.window, wall, send, done)
			})
			judged[id] = ok
		}
		if !ok {
			l.fail("%s key %d: answers %v are not within ε·N of the exact ranks", opName(req.kind), req.key, vals)
		}
	}
}

// judge accepts a flat answer within ε·N of the acknowledged stream, and a
// keyed or windowed answer within ε·N of one of the key's possible
// resident histories.
func (l *live) judge(o *oracle, t truth, h keyHistory, req request, vals []float64, window func([]rec) (stream, stream)) bool {
	all := func(sure, maybe stream) bool {
		for i, phi := range phis {
			if !o.accepts(sure, maybe, phi, vals[i]) {
				return false
			}
		}
		return true
	}
	if req.kind == queryFlat {
		return all(t.flat, stream{})
	}
	for _, start := range h.starts {
		frames := h.frames[start:]
		if req.kind == queryKeyed && all(framesStream(frames, l.pool.elems), stream{}) ||
			req.kind == queryWindow && all(window(frames)) {
			return true
		}
	}
	return false
}

// drain waits until the root holds exactly the acknowledged element count.
func (l *live) drain(ctx context.Context, s *sender, acked int64) {
	deadline := time.Now().Add(20 * time.Second)
	for {
		var st struct {
			Count int64 `json:"count"`
		}
		err := getJSON(ctx, s.hc, s.base+"/stats", &st)
		switch {
		case err == nil && st.Count == acked:
			return
		case err == nil && st.Count > acked, time.Now().After(deadline), ctx.Err() != nil:
			l.fail("root holds %d elements after draining, %d acknowledged (%v)", st.Count, acked, err)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// endToEnd computes the end-to-end metrics and the run's diagnostics.
func (l *live) endToEnd() (metrics, extra map[string]float64, samples map[string]int) {
	var ingest, queries []time.Duration
	var acked int
	first, last := time.Duration(math.MaxInt64), time.Duration(0)
	for _, r := range l.ingest {
		if r.measured {
			ingest = append(ingest, r.latency)
			first, last = min(first, r.send), max(last, r.done)
			if r.err == nil {
				acked += l.pool.elems
			}
		}
	}
	for _, r := range l.queries {
		if r.measured {
			queries = append(queries, r.latency)
		}
	}
	metrics = map[string]float64{
		"setup_s":             medianDuration(l.setups).Seconds(),
		"ingest_melems_per_s": float64(acked) / (last - first).Seconds() / 1e6,
		"ingest_ack_p50_ms":   ms(percentile(ingest, 0.50)),
		"ingest_ack_p99_ms":   ms(percentile(ingest, 0.99)),
		"query_p50_ms":        ms(percentile(queries, 0.50)),
		"query_p99_ms":        ms(percentile(queries, 0.99)),
		"server_rss_mib":      l.rssMiB,
	}
	extra = map[string]float64{"fail_frac": float64(l.failed) / float64(max(l.attempted, 1))}
	samples = map[string]int{"ingest_ack_p99_ms": len(ingest), "query_p99_ms": len(queries)}
	return metrics, extra, samples
}

// genLagP99 is the generator's own lateness at p99 over measured load.
func (l *live) genLagP99() float64 {
	var lags []time.Duration
	for _, rs := range [][]rec{l.ingest, l.queries} {
		for _, r := range rs {
			if r.measured {
				lags = append(lags, r.lag)
			}
		}
	}
	return ms(percentile(lags, 0.99))
}

// counters derives the per-layer counts from /metrics deltas over the run,
// for the layers the workload's servers actually exercise.
func (l *live) counters() map[string]float64 {
	out := map[string]float64{}
	secs := (l.warm + l.measure).Seconds()
	if l.w.topo == tree {
		b, a := l.before["root"], l.after["root"]
		hits, misses := promDelta(b, a, "cluster_view_hits_total"), promDelta(b, a, "cluster_view_misses_total")
		if hits+misses > 0 {
			out["cluster.root_view_hit_ratio"] = hits / (hits + misses)
		}
		if n := promDelta(b, a, "cluster_merge_seconds_count"); n > 0 {
			out["cluster.merge_ms_per_epoch"] = 1000 * promDelta(b, a, "cluster_merge_seconds_sum") / n
		}
		out["cluster.ship_retries"] = promDelta(l.before["worker"], l.after["worker"], `cluster_ship_retries_total{worker="w0"}`) +
			promDelta(l.before["agg"], l.after["agg"], `cluster_ship_retries_total{worker="a0"}`)
		out["quantile.memory_elements"] = l.after["worker"]["sketch_memory_elements"]
		return out
	}
	b, a := l.before["standalone"], l.after["standalone"]
	hits, misses := promDelta(b, a, "sketch_view_hits_total"), promDelta(b, a, "sketch_view_misses_total")
	if hits+misses > 0 {
		out["view.rebuilds_per_query"] = promDelta(b, a, "sketch_view_rebuilds_total") / (hits + misses)
		out["view.hit_ratio"] = hits / (hits + misses)
	}
	if mem := a["sketch_memory_elements"]; l.w.keyedShare < 1 {
		out["quantile.memory_elements"] = mem
		if layout, err := keyed.Solve(l.w.nodeEps(), delta); err == nil {
			// quantiled's flat sketch runs 8 shards of b·k elements each.
			out["quantile.memory_frac_of_bk"] = mem / float64(8*layout.B*layout.K)
		}
	}
	if l.w.topo != keyedStore {
		return out
	}
	var windowed, keyedFrames float64
	for _, rs := range [][]rec{l.queries, l.quiet} {
		for _, r := range rs {
			if r.req.kind == queryWindow {
				windowed++
			}
		}
	}
	for _, r := range l.ingest {
		if r.req.kind == ingestKeyed {
			keyedFrames++
		}
	}
	if windowed > 0 {
		out["window.rebuilds_per_query"] = promDelta(b, a, "keyed_window_rebuilds_total") / windowed
	}
	out["window.rotations_per_s"] = promDelta(b, a, "keyed_window_rotations_total") / secs
	if keyedFrames > 0 {
		out["keyed.lru_evictions_per_kframe"] = promDelta(b, a, `keyed_evictions_total{reason="lru"}`) / (keyedFrames / 1000)
	}
	return out
}
