package main

import (
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/keyed"
)

// stream is a multiset of pool frames: counts[f] copies of frame f, n
// elements in all. It is the exact content of one served stream (the flat
// sketch, one key, one key's window, or the tree's root).
type stream struct {
	counts []int64
	n      int64
}

func newStream() stream { return stream{counts: make([]int64, poolFrames)} }

func (s *stream) add(f, elems int) {
	s.counts[f]++
	s.n += int64(elems)
}

// oracle judges answers exactly: the rank of a value in a stream is the sum
// over frames of (times sent) × (its rank within that frame's sorted copy).
type oracle struct {
	pool *pool
	eps  float64
}

// ranks returns how many elements of s are < v and ≤ v.
func (o *oracle) ranks(s stream, v float64) (less, leq int64) {
	for f, c := range s.counts {
		if c == 0 {
			continue
		}
		sorted := o.pool.sorted[f]
		lt := sort.SearchFloat64s(sorted, v)
		le := lt
		for le < len(sorted) && sorted[le] == v {
			le++
		}
		less += c * int64(lt)
		leq += c * int64(le)
	}
	return less, leq
}

// accepts reports whether v is an ε-approximate φ-quantile, in the sense of
// internal/exact.RankError, of some stream holding all of sure and any part
// of maybe. With maybe empty this is exactly RankError == 0.
func (o *oracle) accepts(sure, maybe stream, phi, v float64) bool {
	less, leq := o.ranks(sure, v)
	if maybe.n > 0 {
		_, more := o.ranks(maybe, v)
		leq += more
	}
	nMin, nMax := float64(sure.n), float64(sure.n+maybe.n)
	if nMax == 0 {
		return false
	}
	lo, hi := less+1, max(leq, less+1) // v's attainable 1-based ranks
	loWant := max(int64(math.Ceil((phi-o.eps)*nMin)), 1)
	hiWant := min(int64(math.Ceil((phi+o.eps)*nMax)), int64(nMax))
	return hi >= loWant && lo <= hiWant
}

// windowWidth is the epoch width quantiled derives from -window and
// -window-epochs (httpapi rounds the width up).
const windowWidth = (windowSpan + windowEpochs - 1) / windowEpochs

// windowSplit divides a key's acknowledged frames for a windowed query over
// d answered during [qs, qd]. The server stamps each frame with epoch
// floor(t/width) for some t in [send, done], and the query merges the newest
// ceil(d/width) epochs up to its own, so a frame is surely inside when its
// earliest epoch reaches the window's latest possible start, surely outside
// when its latest epoch precedes the earliest possible start, and either
// otherwise. wall converts run offsets to Unix nanoseconds.
func windowSplit(frames []rec, elems int, d time.Duration, wall func(time.Duration) int64, qs, qd time.Duration) (sure, maybe stream) {
	epoch := func(t time.Duration) int64 { return wall(t) / int64(windowWidth) }
	m := int64((d + windowWidth - 1) / windowWidth)
	lowest, highest := epoch(qs)-m+1, epoch(qd)-m+1
	sure, maybe = newStream(), newStream()
	for _, r := range frames {
		switch {
		case epoch(r.send) >= highest:
			sure.add(r.req.frame, elems)
		case epoch(r.done) >= lowest:
			maybe.add(r.req.frame, elems)
		}
	}
	return sure, maybe
}

// keyHistory is what the keyed store may hold for one key: its
// acknowledged frames in send order, and every index its resident copy may
// start at — 0, and each frame that may have re-created the key after an
// LRU eviction.
type keyHistory struct {
	key    int
	frames []rec
	starts []int
}

// keyHistories returns the histories of the candidates most-written keys
// that are certainly resident at the end of the run. The store evicts per
// shard at ⌈keysMax/shards⌉ keys, so a key can only reach its shard's LRU
// tail and be evicted once at least that many other keys have been touched
// since its own last touch; without the (random) shard assignment, every
// distinct key counts. A touch happens somewhere in its request's
// [send, done], so every request overlapping a gap counts.
func keyHistories(ingest []rec, keys, candidates int) []keyHistory {
	shardCap := (keysMax + keyed.DefaultShards - 1) / keyed.DefaultShards
	var ks []rec // every keyed request: each may touch its key
	freq := make([]int, keys)
	var longest time.Duration
	for _, r := range ingest {
		if r.req.kind == ingestKeyed {
			ks = append(ks, r)
			if r.err == nil {
				freq[r.key]++
			}
			longest = max(longest, r.done-r.send)
		}
	}
	slices.SortFunc(ks, func(a, b rec) int { return int(a.send - b.send) })
	order := make([]int, keys)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return freq[b] - freq[a] })

	stamp := make([]int, keys)
	gen := 0
	// risky reports whether enough other keys overlap the gap between a
	// touch and the given end for the key to have been evicted in it.
	risky := func(k int, a rec, end time.Duration) bool {
		from := sort.Search(len(ks), func(j int) bool { return ks[j].send >= a.send-longest })
		gen++
		distinct := 0
		for j := from; j < len(ks) && ks[j].send < end; j++ {
			if r := ks[j]; r.key != k && r.done > a.send && stamp[r.key] != gen {
				stamp[r.key] = gen
				distinct++
			}
		}
		return distinct >= shardCap
	}
	var out []keyHistory
	for _, k := range order[:min(candidates, keys)] {
		if freq[k] == 0 {
			break
		}
		h := keyHistory{key: k, starts: []int{0}}
		for _, r := range ks {
			if r.key == k && r.err == nil {
				h.frames = append(h.frames, r)
			}
		}
		for i := 0; i+1 < len(h.frames); i++ {
			if risky(k, h.frames[i], h.frames[i+1].done) {
				h.starts = append(h.starts, i+1)
			}
		}
		if !risky(k, h.frames[len(h.frames)-1], math.MaxInt64) {
			out = append(out, h)
		}
	}
	return out
}

// framesStream is the multiset of a run of acknowledged frames.
func framesStream(frames []rec, elems int) stream {
	s := newStream()
	for _, r := range frames {
		s.add(r.req.frame, elems)
	}
	return s
}
