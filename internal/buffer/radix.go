package buffer

import (
	"fmt"
	"math"
	"sync"
)

// Radix-sorted collapse: the float64 fast path behind Collapse.
//
// Profiles of the MRL99 ingest loop put ~95% of the per-element cost in two
// places: the comparison sort each leaf paid on becoming Full, and the
// tournament merge inside Collapse. Both disappear for float64 streams by
// (1) deferring the leaf sorts (Buffer.unsorted) and (2) collapsing via an
// LSD radix sort over the *unsorted* concatenation of the inputs, fused with
// the weighted k-spaced selection. The radix key is the classic
// order-preserving bit image of a float64, so one 8-pass byte sort replaces
// b·k·log(k) comparisons with b·k·(passes) table-driven moves — and passes
// over bytes the whole input agrees on are skipped outright.
//
// NaN is the one value whose cmp.Less order (NaN first) disagrees with the
// bit-image order, so radixCollapse refuses streams containing NaN before
// touching any state and Collapse falls back to the comparison merge.

// flipKey maps a float64 to a uint64 whose unsigned order equals the
// float's ascending order: positives get the sign bit set, negatives are
// bitwise complemented (reversing their order and clearing the sign bit).
func flipKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// unflipKey inverts flipKey.
func unflipKey(k uint64) float64 {
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// radixHist builds all eight byte histograms of keys in a single pass.
// The histograms are invariant under permutation, so they describe every
// intermediate ordering of the ping-pong passes too.
func radixHist(keys []uint64, hist *[8][256]uint32) {
	for _, k := range keys {
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
}

// radixSortKeys sorts keys ascending by LSD radix over 8-bit digits, using
// tmp (same length) as the ping-pong partner. It returns the slice that
// holds the sorted data, which is keys or tmp depending on how many passes
// ran. Passes whose digit is constant across the input are skipped.
func radixSortKeys(keys, tmp []uint64) []uint64 {
	n := len(keys)
	if n < 2 {
		return keys
	}
	var hist [8][256]uint32
	radixHist(keys, &hist)
	src, dst := keys, tmp
	for pass := 0; pass < 8; pass++ {
		shift := uint(8 * pass)
		h := &hist[pass]
		if h[byte(src[0]>>shift)] == uint32(n) {
			continue
		}
		var offs [256]uint32
		var sum uint32
		for i := range h {
			offs[i] = sum
			sum += h[i]
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[offs[b]] = k
			offs[b]++
		}
		src, dst = dst, src
	}
	return src
}

// radixSortKeysW is radixSortKeys with a parallel uint64 payload (the
// per-element weights of a mixed-weight collapse) carried through each
// pass. LSD counting passes are stable, so equal keys keep input order.
func radixSortKeysW(keys, tmp, wts, wtsTmp []uint64) (sortedKeys, sortedWts []uint64) {
	n := len(keys)
	if n < 2 {
		return keys, wts
	}
	var hist [8][256]uint32
	radixHist(keys, &hist)
	ks, kd := keys, tmp
	ws, wd := wts, wtsTmp
	for pass := 0; pass < 8; pass++ {
		shift := uint(8 * pass)
		h := &hist[pass]
		if h[byte(ks[0]>>shift)] == uint32(n) {
			continue
		}
		var offs [256]uint32
		var sum uint32
		for i := range h {
			offs[i] = sum
			sum += h[i]
		}
		for i, k := range ks {
			b := byte(k >> shift)
			o := offs[b]
			kd[o] = k
			wd[o] = ws[i]
			offs[b]++
		}
		ks, kd = kd, ks
		ws, wd = wd, ws
	}
	return ks, ws
}

// radixArena is the working storage of one float64 radix collapse: the
// order-preserving key images of the concatenated inputs, their ping-pong
// partner, and (mixed weights only) the per-element weight payload with its
// own partner — at most 32·b·k bytes for a b-way collapse of k-element
// buffers. Each array grows on demand and is kept at its high-water size.
type radixArena struct {
	keys, keyTmp []uint64
	wts, wtsTmp  []uint64
}

// arenas is the free list of radix arenas shared by every Collapser in the
// process. A collapse borrows one for its duration (getArena … putArena),
// so resident collapse scratch grows with the number of collapses in flight
// rather than with the number of sketches: a keyed store of thousands of
// per-key sketches (and their window slots) holds only its buffers.
//
// It is a mutex-guarded stack that never drops an arena, not a sync.Pool:
// a Pool empties at every GC and, under the race detector, drops items at
// random, so the next collapse would re-pay its arena allocation and the
// zero-alloc steady state of the ingest path would not hold.
var arenas struct {
	mu   sync.Mutex
	free []*radixArena
}

// getArena pops the most recently returned arena (allocating the first
// one) and grows its key arrays to hold n elements. Arenas only grow, so
// once each has seen the largest layout in use the steady state allocates
// nothing.
func getArena(n int) *radixArena {
	arenas.mu.Lock()
	var a *radixArena
	if top := len(arenas.free) - 1; top >= 0 {
		a = arenas.free[top]
		arenas.free[top] = nil
		arenas.free = arenas.free[:top]
	}
	arenas.mu.Unlock()
	if a == nil {
		a = new(radixArena)
	}
	if cap(a.keys) < n {
		a.keys = make([]uint64, n)
		a.keyTmp = make([]uint64, n)
	}
	return a
}

// putArena returns a borrowed arena to the free list.
func putArena(a *radixArena) {
	arenas.mu.Lock()
	arenas.free = append(arenas.free, a)
	arenas.mu.Unlock()
}

// radixCollapse runs the fused sort+merge+selection for float64 buffers,
// writing the k selected elements straight into dst.Data[:k]. It reads the
// raw (possibly unsorted) buffer contents directly — the deferred leaf
// sorts are never paid. Every input, dst included, is copied into the
// borrowed arena's key array, and NaN rejected, before the first write to
// dst, so the in-place output cannot clobber an element still to be read.
// Returns false without touching any buffer when the inputs contain NaN,
// whose cmp.Less ordering the bit-image key cannot reproduce; Collapse
// then takes the comparison path. Collapse reaches it through the runtime
// type assertion in tryRadix.
func radixCollapse(bufs []*Buffer[float64], dst *Buffer[float64], first, wOut uint64) bool {
	n := 0
	equal := true
	w0 := bufs[0].Weight
	for _, b := range bufs {
		n += b.Fill
		if b.Weight != w0 {
			equal = false
		}
	}
	a := getArena(n)
	defer putArena(a)
	keys := a.keys[:0]
	for _, b := range bufs {
		for _, v := range b.Data[:b.Fill] {
			if v != v { // NaN: bail before any state changes
				return false
			}
			keys = append(keys, flipKey(v))
		}
	}

	out := dst.Data
	k := len(out)
	if equal {
		// Equal weights collapse the cum-scan to arithmetic: sorted element
		// i occupies weighted positions [i·w0+1, (i+1)·w0], so target t maps
		// to index (t−1)/w0.
		sorted := radixSortKeys(keys, a.keyTmp[:n])
		t := first
		for j := 0; j < k; j++ {
			out[j] = unflipKey(sorted[(t-1)/w0])
			t += wOut
		}
		return true
	}

	if cap(a.wts) < n {
		a.wts = make([]uint64, n)
		a.wtsTmp = make([]uint64, n)
	}
	wts := a.wts[:0]
	for _, b := range bufs {
		for i := 0; i < b.Fill; i++ {
			wts = append(wts, b.Weight)
		}
	}
	sk, sw := radixSortKeysW(keys, a.keyTmp[:n], wts, a.wtsTmp[:n])
	t := first
	j := 0
	var cum uint64
	for i := 0; i < n && j < k; i++ {
		cum += sw[i]
		for j < k && t <= cum {
			out[j] = unflipKey(sk[i])
			j++
			t += wOut
		}
	}
	if j != k {
		// Unreachable for full inputs, mirroring Collapse's own guard.
		panic(fmt.Sprintf("buffer: radix collapse selected %d of %d elements", j, k))
	}
	return true
}
