package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/exact"
)

func testPool(t *testing.T) *pool {
	t.Helper()
	return newPool(&workload{name: "test", frameElems: 1000}, 7)
}

// framesOf returns the elements of frame f in send order.
func framesOf(t *testing.T, p *pool, f int) []float64 {
	t.Helper()
	vals, _, err := codec.DecodeIngestFrame(p.flat[f], nil)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestOracleAcceptsExactRejectsOneAndAHalfEps(t *testing.T) {
	p := testPool(t)
	o := &oracle{pool: p, eps: rootEps}
	s := newStream()
	var all []float64
	for f := 0; f < 10; f++ {
		for c := 0; c <= f%3; c++ {
			s.add(f, p.elems)
			all = append(all, p.sorted[f]...)
		}
	}
	slices.Sort(all)
	n := len(all)
	off := int(1.5 * rootEps * float64(n))
	for _, phi := range phis {
		i := exact.QuantileIndex(n, phi)
		if v := all[i]; !o.accepts(s, stream{}, phi, v) {
			t.Errorf("phi %g: exact answer %g rejected", phi, v)
		}
		for _, j := range []int{i - off, i + off} {
			if j < 0 || j >= n {
				continue
			}
			if v := all[j]; o.accepts(s, stream{}, phi, v) {
				t.Errorf("phi %g: answer %g, %d ranks (1.5·ε·N) off, accepted", phi, v, j-i)
			}
			if got := exact.RankError(all, all[j], phi, rootEps); got == 0 {
				t.Errorf("phi %g: exact.RankError accepts the off answer too; the test is wrong", phi)
			}
		}
	}
}

func TestOracleMaybeFramesWidenTheBound(t *testing.T) {
	p := testPool(t)
	o := &oracle{pool: p, eps: rootEps}
	sure, maybe := newStream(), newStream()
	for f := 0; f < 20; f++ {
		sure.add(f, p.elems)
	}
	maybe.add(20, p.elems)
	with := append(slices.Clone(p.sorted[20]), func() []float64 {
		var v []float64
		for f := 0; f < 20; f++ {
			v = append(v, p.sorted[f]...)
		}
		return v
	}()...)
	slices.Sort(with)
	// An exact answer over sure+maybe must pass whether or not the maybe
	// frame was counted.
	for _, phi := range phis {
		v := with[exact.QuantileIndex(len(with), phi)]
		if !o.accepts(sure, maybe, phi, v) {
			t.Errorf("phi %g: exact answer over sure+maybe rejected", phi)
		}
	}
}

func TestKeyedFrameSpliceMatchesEncoder(t *testing.T) {
	p := testPool(t)
	for _, key := range []string{"k0000", "h", "a-much-longer-tenant-key/with/slashes"} {
		for _, f := range []int{0, 17, poolFrames - 1} {
			want := codec.AppendKeyedIngestFrame(nil, []byte(key), framesOf(t, p, f))
			if got := p.keyedFrame(nil, []byte(key), f); !bytes.Equal(got, want) {
				t.Fatalf("key %q frame %d: spliced frame differs from the encoder's", key, f)
			}
		}
	}
}

func TestWindowSplitByEpoch(t *testing.T) {
	width := int64(windowWidth)
	wall := func(d time.Duration) int64 { return 100*width + int64(d) }
	at := func(epoch int64, frame int) rec {
		t := time.Duration(epoch*width + width/2)
		return rec{req: request{kind: ingestKeyed, frame: frame}, send: t, done: t + time.Millisecond}
	}
	straddle := rec{req: request{kind: ingestKeyed, frame: 3},
		send: time.Duration(4*width) - time.Millisecond, done: time.Duration(4*width) + time.Millisecond}
	frames := []rec{at(0, 0), at(3, 1), at(4, 2), straddle, at(8, 4)}
	// A 5-epoch window queried in epoch 8 covers epochs 4..8.
	q := time.Duration(8*width + width/2)
	sure, maybe := windowSplit(frames, 10, 5*windowWidth, wall, q, q)
	if want := []int64{0, 0, 1, 0, 1}; !slices.Equal(sure.counts[:5], want) {
		t.Errorf("sure frames %v, want %v", sure.counts[:5], want)
	}
	if maybe.counts[3] != 1 || maybe.n != 10 {
		t.Errorf("the frame straddling the window's first epoch should be the only maybe, got %v", maybe.counts[:5])
	}
}

func TestKeyHistoriesFindEvictionWindows(t *testing.T) {
	// Key 0 is written, then every other key once, then key 0 again: more
	// distinct keys than a shard holds touched it in between, so the second
	// frame may have re-created it. Key 1 is written last and is certain.
	var recs []rec
	at := time.Duration(0)
	add := func(key int) {
		recs = append(recs, rec{req: request{kind: ingestKeyed}, key: key, send: at, done: at + time.Microsecond})
		at += time.Millisecond
	}
	add(0)
	for k := 2; k < 2+keysMax; k++ {
		add(k)
	}
	add(0)
	add(1)
	hs := keyHistories(recs, 2+keysMax, 2)
	if len(hs) != 2 {
		t.Fatalf("got %d histories, want keys 0 and 1", len(hs))
	}
	for _, h := range hs {
		switch h.key {
		case 0:
			if !slices.Equal(h.starts, []int{0, 1}) {
				t.Errorf("key 0 starts %v, want [0 1]", h.starts)
			}
		case 1:
			if !slices.Equal(h.starts, []int{0}) {
				t.Errorf("key 1 starts %v, want [0]", h.starts)
			}
		}
	}
	// With one more distinct key after it, key 1's own residency is in doubt.
	for k := 2; k < 2+keysMax; k++ {
		add(k)
	}
	for _, h := range keyHistories(recs, 2+keysMax, 2) {
		if h.key == 1 || h.key == 0 {
			t.Errorf("key %d may be evicted after its last frame but was kept for verification", h.key)
		}
	}
}

// TestOpenLoopCountsStallAgainstQueuedRequests drives an open loop against
// a server that stalls once: the requests queued behind the stall carry the
// wait in their latency, while the generator's own lag stays small.
func TestOpenLoopCountsStallAgainstQueuedRequests(t *testing.T) {
	const stall, every = 60 * time.Millisecond, 5 * time.Millisecond
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"0.01":1,"0.1":2,"0.25":3,"0.5":4,"0.75":5,"0.9":6,"0.99":7}`))
	}))
	defer ts.Close()
	w := &workload{name: "stall", topo: tree, frameElems: 1}
	l := &loop{s: newSender(ts.Client(), ts.URL, w, testPool(t)), base: time.Now(),
		stop: 40 * every, interval: every, next: func() request { return request{kind: queryFlat} }}
	recs := l.run(context.Background())
	if len(recs) != 40 {
		t.Fatalf("%d requests sent, want 40", len(recs))
	}
	for i, r := range recs {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.lag > stall/4 {
			t.Errorf("request %d: generator lag %v counts the stall", i, r.lag)
		}
	}
	if got := recs[5].latency; got < stall-2*every {
		t.Errorf("request queued behind the stall has latency %v, want at least %v", got, stall-2*every)
	}
	if got := recs[5].done - recs[5].send; got > stall/2 {
		t.Errorf("request after the stall took %v on the wire; the test server stalled more than once", got)
	}
}

// TestParsePromGoldens reads the committed /metrics goldens (read-only).
func TestParsePromGoldens(t *testing.T) {
	for file, want := range map[string]map[string]float64{
		"../httpapi/testdata/metrics.golden": {
			"sketch_memory_elements":                        1284,
			`http_requests_total{endpoint="quantile"}`:      3,
			`keyed_evictions_total{reason="lru"}`:           0,
			`http_request_seconds_sum{endpoint="quantile"}`: 0.003,
		},
		"../cluster/testdata/metrics.golden": {
			"cluster_merge_seconds_count":                    2,
			"cluster_view_hits_total":                        2,
			`cluster_worker_elements_total{worker="w1"}`:     2000,
			`cluster_view_rebuild_seconds_bucket{le="+Inf"}`: 1,
		},
		"../cluster/agg/testdata/metrics.golden": {
			`cluster_ship_retries_total{worker="a0"}`: 0,
			"cluster_bytes_ingested_total":            6390,
			"cluster_elements_total":                  4000,
		},
	} {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseProm(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for series, v := range want {
			if g, ok := got[series]; !ok || g != v {
				t.Errorf("%s: %s = %v (present %v), want %v", file, series, g, ok, v)
			}
		}
	}
	before, after := promSample{"a": 1}, promSample{"a": 4, "b": 2}
	if promDelta(before, after, "a") != 3 || promDelta(before, after, "b") != 2 {
		t.Error("promDelta: want after − before, counting absent series from zero")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 3}, 1, 3, 5},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, c := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{[]float64{10, 10.02, 9.98, 10.01, 9.99}, false, "unchanged"},
		{[]float64{13, 13.1, 12.9, 13.05, 12.95}, false, "worse"},
		{[]float64{8, 8.1, 7.9, 8.05, 7.95}, false, "better"},
		{[]float64{8, 8.1, 7.9, 8.05, 7.95}, true, "worse"},
	} {
		if got := verdict(a, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("verdict(%v, higher=%v) = %s, want %s", c.b, c.higher, got, c.want)
		}
	}
	if got := verdict([]float64{5, 10, 15, 20}, []float64{9, 11, 14, 16}, false, 0.1); got != "unresolved" {
		t.Errorf("a spread wider than the bound gave %s, want unresolved", got)
	}
}

func TestFoldTrace(t *testing.T) {
	got := foldTrace([]string{"--workload", "x", "--trace", "1", "--seed", "3", "-trace"})
	want := []string{"--workload", "x", "--trace=1", "--seed", "3", "-trace"}
	if !slices.Equal(got, want) {
		t.Errorf("foldTrace = %q, want %q", got, want)
	}
}
