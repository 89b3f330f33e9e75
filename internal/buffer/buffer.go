// Package buffer implements the weighted-buffer framework of Manku,
// Rajagopalan & Lindsay (paper Section 3): fixed-capacity buffers carrying an
// integer weight, populated by block sampling (New), reduced by weighted
// merging (Collapse), and queried by weighted selection (Output).
//
// All quantile algorithms in this repository — the unknown-N algorithm, the
// known-N MRL98 variants, Munro–Paterson and Alsabti–Ranka–Singh — are
// compositions of these three operations under different scheduling policies.
package buffer

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/rng"
)

// State labels a buffer as in the paper: Empty, Partial (the input ran dry
// while filling) or Full.
type State uint8

// Buffer states.
const (
	Empty State = iota
	Partial
	Full
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Empty:
		return "empty"
	case Partial:
		return "partial"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Buffer is a weighted buffer of capacity k. Data[:Fill] holds the elements,
// sorted ascending once the buffer leaves the Empty state — except while the
// unsorted flag is set, which marks a finalized buffer whose sort has been
// deferred (see EnsureSorted). Weight is the per-element weight w(X): each
// stored element stands for Weight consecutive input elements. Level is the
// buffer's level in the collapse tree.
type Buffer[T cmp.Ordered] struct {
	Data   []T
	Fill   int
	Weight uint64
	Level  int
	State  State

	// unsorted defers the sort that used to run eagerly when a fill
	// completed: Collapse's float64 fast path radix-sorts the concatenated
	// inputs in one pass, so sorting each leaf individually first would be
	// pure waste. Every reader that needs sorted order (queries, shipping,
	// checkpoints, the generic merge walks) goes through EnsureSorted or
	// Elements, which settle the debt on demand.
	unsorted bool
}

// New allocates an empty buffer of capacity k.
func New[T cmp.Ordered](k int) *Buffer[T] {
	if k <= 0 {
		panic("buffer: capacity must be positive")
	}
	return &Buffer[T]{Data: make([]T, k)}
}

// K returns the buffer capacity.
func (b *Buffer[T]) K() int { return len(b.Data) }

// WeightedCount returns Fill·Weight, the number of input elements this
// buffer stands for.
func (b *Buffer[T]) WeightedCount() uint64 {
	return uint64(b.Fill) * b.Weight
}

// Clear returns the buffer to the Empty state without releasing memory.
func (b *Buffer[T]) Clear() {
	b.Fill = 0
	b.Weight = 0
	b.Level = 0
	b.State = Empty
	b.unsorted = false
}

// EnsureSorted sorts the buffer's elements if a completed fill deferred its
// sort. Callers that hand buffers to concurrent readers must call this (or
// Elements) under the same lock that guards mutation.
func (b *Buffer[T]) EnsureSorted() {
	if b.unsorted {
		b.unsorted = false
		slices.Sort(b.Data[:b.Fill])
	}
}

// Elements returns the live elements (sorted). The slice aliases the
// buffer's storage; callers must not modify it.
func (b *Buffer[T]) Elements() []T {
	b.EnsureSorted()
	return b.Data[:b.Fill]
}

// FillFrom implements the New operation (paper Section 3.1): populate an
// empty buffer by drawing one uniformly random element from each of k
// successive blocks of r input elements. The buffer's weight becomes r and
// its level is set by the caller. pull yields input elements; r = 1 means no
// sampling. Returns the number of input elements consumed. If the input runs
// dry before k blocks complete, the buffer is marked Partial; an element is
// still retained for a trailing incomplete block (it receives weight r like
// the rest — the paper's analysis absorbs this in the k′ terms it drops).
func (b *Buffer[T]) FillFrom(pull func() (T, bool), r uint64, rg *rng.RNG) uint64 {
	f := StartFill(b, r, rg)
	var consumed uint64
	for {
		v, ok := pull()
		if !ok {
			f.Finish()
			return consumed
		}
		consumed++
		if f.Push(v) {
			return consumed
		}
	}
}

// Filler performs the New operation incrementally — the shape required by a
// streaming Add API where input arrives push-style rather than pull-style.
// Within each block of r pushed elements it retains a uniformly random one.
//
// The retained position is drawn up front: at the first element of each
// block the Filler draws a single target position uniform over [1, r]
// (skip-sampling in the style of Vitter's reservoir Algorithm Z — one RNG
// draw per accepted element instead of one coin flip per stream element).
// Push latches the element at the target position as it streams past;
// PushBulk skips straight to it by indexing, never touching the r−1
// rejected elements of the block. Both paths draw random numbers at exactly
// the block starts, so any mix of Push and PushBulk calls over the same
// input yields byte-identical buffer and RNG state under the same seed.
//
// If the stream ends before the target position materializes, Finish keeps
// the last element seen (the trailing incomplete block is absorbed by the
// k′ terms the paper's analysis drops, exactly as before).
type Filler[T cmp.Ordered] struct {
	buf     *Buffer[T]
	rate    uint64
	inBlock uint64
	// target is the 1-based position within the current block whose element
	// is kept; 0 when no block is underway. keep holds the element at
	// position min(inBlock, target) — the latched candidate.
	target uint64
	keep   T
	rg     *rng.RNG
	done   bool
}

// StartFill begins a New operation on the given empty buffer with sampling
// rate r ≥ 1. The buffer's weight is set to r immediately; its level is the
// caller's responsibility.
func StartFill[T cmp.Ordered](b *Buffer[T], r uint64, rg *rng.RNG) *Filler[T] {
	f := &Filler[T]{}
	f.Start(b, r, rg)
	return f
}

// Start (re)initializes the Filler in place for a New operation on the given
// empty buffer — the pooled form of StartFill, letting a sketch reuse one
// Filler value across every leaf fill instead of allocating one per leaf.
func (f *Filler[T]) Start(b *Buffer[T], r uint64, rg *rng.RNG) {
	if b.State != Empty {
		panic("buffer: StartFill on non-empty buffer")
	}
	if r == 0 {
		panic("buffer: sampling rate must be >= 1")
	}
	b.Weight = r
	*f = Filler[T]{buf: b, rate: r, rg: rg}
}

// drawTarget picks the kept position of a fresh block, uniform over [1, r].
// Rate 1 draws nothing: the single element of every block is the target.
func (f *Filler[T]) drawTarget() uint64 {
	if f.rate == 1 {
		return 1
	}
	return 1 + f.rg.Uint64n(f.rate)
}

// commitBlock appends the latched candidate to the buffer and resets the
// block state, returning true when the buffer has just become Full.
func (f *Filler[T]) commitBlock() bool {
	b := f.buf
	b.Data[b.Fill] = f.keep
	b.Fill++
	f.inBlock = 0
	f.target = 0
	if b.Fill == len(b.Data) {
		b.State = Full
		b.unsorted = true
		f.done = true
		return true
	}
	return false
}

// Push feeds one input element. It returns true when the buffer has just
// become Full (k complete blocks consumed); the Filler must not be used
// afterwards.
func (f *Filler[T]) Push(v T) bool {
	if f.done {
		panic("buffer: Push after fill completed")
	}
	if f.inBlock == 0 {
		f.target = f.drawTarget()
	}
	f.inBlock++
	if f.inBlock <= f.target {
		f.keep = v
	}
	if f.inBlock < f.rate {
		return false
	}
	return f.commitBlock()
}

// PushBulk feeds a batch of input elements, consuming from vs until the
// buffer becomes Full or vs is exhausted. It returns how many elements were
// consumed and whether the buffer has just become Full (in which case the
// Filler must not be used afterwards, and the caller owns the rest of vs).
//
// This is the batched fast path: at rate 1 the input is slab-copied with
// copy; at rate r each whole block costs one RNG draw and one indexed load,
// skipping the r−1 rejected elements entirely. The draw schedule is
// identical to Push's, so mixing the two paths preserves byte-identical
// state under a fixed seed.
func (f *Filler[T]) PushBulk(vs []T) (consumed int, full bool) {
	if f.done {
		panic("buffer: PushBulk after fill completed")
	}
	b := f.buf
	if f.rate == 1 {
		m := copy(b.Data[b.Fill:], vs)
		b.Fill += m
		if b.Fill == len(b.Data) {
			b.State = Full
			b.unsorted = true
			f.done = true
			return m, true
		}
		return m, false
	}
	i, n := 0, len(vs)
	for i < n {
		if f.inBlock == 0 {
			f.target = f.drawTarget()
		}
		need := f.rate - f.inBlock // elements left to complete the block
		avail := uint64(n - i)
		if avail < need {
			// The block does not complete within vs: advance the candidate
			// to position min(inBlock+avail, target) and carry the state.
			if f.inBlock < f.target {
				off := f.target - f.inBlock // 1-based offset into vs[i:]
				if off > avail {
					off = avail
				}
				f.keep = vs[i+int(off)-1]
			}
			f.inBlock += avail
			return n, false
		}
		// The block completes inside vs: the kept element sits at the target
		// position (already latched if the block began in an earlier call).
		if f.inBlock < f.target {
			f.keep = vs[i+int(f.target-f.inBlock)-1]
		}
		i += int(need)
		if f.commitBlock() {
			return i, true
		}
	}
	return i, false
}

// Finish finalizes a fill whose input ran dry: a trailing incomplete block
// contributes its latched candidate (at full weight r — the paper's
// analysis absorbs this in the k′ terms it drops), and the buffer is marked
// Partial (or Full if the last block happened to complete the buffer).
// When the incomplete block ended before its target position, the candidate
// is the block's last element. Finish is idempotent.
func (f *Filler[T]) Finish() {
	if f.done {
		return
	}
	f.done = true
	b := f.buf
	if f.inBlock > 0 {
		b.Data[b.Fill] = f.keep
		b.Fill++
		f.inBlock = 0
	}
	if b.Fill == len(b.Data) {
		b.State = Full
	} else {
		b.State = Partial
	}
	b.unsorted = true
}

// Progress returns the fill's mid-block state for checkpointing: how many
// elements of the current block have been consumed, the block's drawn
// target position, and the candidate latched so far (target and keep are
// meaningful only when inBlock > 0).
func (f *Filler[T]) Progress() (inBlock, target uint64, keep T) {
	return f.inBlock, f.target, f.keep
}

// Rate returns the fill's sampling rate.
func (f *Filler[T]) Rate() uint64 { return f.rate }

// ResumeFill reconstructs a Filler from checkpointed state: a buffer that
// was mid-fill (Empty state, Weight = rate, Fill elements committed) plus
// the in-block progress from Progress.
func ResumeFill[T cmp.Ordered](b *Buffer[T], inBlock, target uint64, keep T, rg *rng.RNG) *Filler[T] {
	if b.State != Empty {
		panic("buffer: ResumeFill on a finalized buffer")
	}
	if b.Weight == 0 {
		panic("buffer: ResumeFill on a buffer without a fill weight")
	}
	if inBlock >= b.Weight {
		panic("buffer: ResumeFill in-block progress exceeds the rate")
	}
	if inBlock > 0 && (target == 0 || target > b.Weight) {
		panic("buffer: ResumeFill target outside the block")
	}
	if inBlock == 0 && target != 0 {
		panic("buffer: ResumeFill target without in-block progress")
	}
	return &Filler[T]{buf: b, rate: b.Weight, inBlock: inBlock, target: target, keep: keep, rg: rg}
}

// Pending reports how many elements the underlying buffer currently holds,
// counting a pending incomplete block's candidate.
func (f *Filler[T]) Pending() int {
	n := f.buf.Fill
	if f.inBlock > 0 {
		n++
	}
	return n
}

// Snapshot writes the current partial contents into dst (capacity ≥ Pending
// elements), including the pending block's candidate, sorted, with the
// fill's weight — used by anytime Output while a fill is in flight. The
// Filler itself is unaffected.
func (f *Filler[T]) Snapshot(dst *Buffer[T]) {
	if dst.K() < f.Pending() {
		panic("buffer: Snapshot destination too small")
	}
	dst.Fill = 0
	dst.Weight = f.rate
	dst.Level = f.buf.Level
	copy(dst.Data, f.buf.Data[:f.buf.Fill])
	dst.Fill = f.buf.Fill
	if f.inBlock > 0 {
		dst.Data[dst.Fill] = f.keep
		dst.Fill++
	}
	slices.Sort(dst.Data[:dst.Fill])
	dst.unsorted = false
	if dst.Fill == dst.K() {
		dst.State = Full
	} else {
		dst.State = Partial
	}
}

// cursor walks one sorted buffer during a weighted k-way merge.
type cursor[T cmp.Ordered] struct {
	buf *Buffer[T]
	pos int
}

func (c *cursor[T]) done() bool     { return c.pos >= c.buf.Fill }
func (c *cursor[T]) head() T        { return c.buf.Data[c.pos] }
func (c *cursor[T]) weight() uint64 { return c.buf.Weight }

// mergeWalk performs the conceptual "make w copies of every element and sort"
// walk over the given buffers without materializing copies. For each element
// in weighted sorted order it calls emit with the element and the weighted
// index range [lo, hi] (1-based, inclusive) that its copies occupy. emit
// returns false to stop early.
func mergeWalk[T cmp.Ordered](bufs []*Buffer[T], emit func(v T, lo, hi uint64) bool) {
	// Small inputs (every real layout) walk from a stack-allocated cursor
	// array so anytime queries do not allocate per call.
	var stack [16]cursor[T]
	cursors := stack[:0]
	if len(bufs) > len(stack) {
		cursors = make([]cursor[T], 0, len(bufs))
	}
	for _, b := range bufs {
		if b.Fill > 0 {
			b.EnsureSorted()
			cursors = append(cursors, cursor[T]{buf: b})
		}
	}
	var cum uint64
	for {
		best := -1
		for i := range cursors {
			if cursors[i].done() {
				continue
			}
			if best == -1 || cursors[i].head() < cursors[best].head() {
				best = i
			}
		}
		if best == -1 {
			return
		}
		c := &cursors[best]
		w := c.weight()
		if !emit(c.head(), cum+1, cum+w) {
			return
		}
		cum += w
		c.pos++
	}
}

// Walk visits the weighted sorted union of the buffers without materializing
// it: for each element in weighted sorted order it calls emit with the element
// and the 1-based inclusive weighted index range [lo, hi] its copies occupy.
// emit returns false to stop early. It is the building block Output and the
// CDF estimators share, exported so query-serving layers (internal/view) can
// materialize the same weighted order exactly once.
func Walk[T cmp.Ordered](bufs []*Buffer[T], emit func(v T, lo, hi uint64) bool) {
	mergeWalk(bufs, emit)
}

// Collapser performs Collapse operations. It holds only persistent state:
// the buffer capacity k, the even-weight parity bit that alternates between
// the two valid position offsets on successive even-weight collapses (paper
// Section 3.2), and the C/W counters. Working storage belongs to the
// collapse that is running, not to the Collapser: the float64 radix path
// borrows a shared arena for the length of one Collapse (see radixArena),
// and only the generic comparison fallback — other element types, or a
// float64 input holding NaN — allocates scratch here, on first use.
type Collapser[T cmp.Ordered] struct {
	k int
	// evenLow selects offset w/2 (true) or (w+2)/2 (false) for the next
	// even-weight collapse.
	evenLow bool
	// Collapses counts invocations; Weight sums the output weights — the
	// C and W quantities of the paper's Section 4.2 analysis, exposed for
	// tests that check the tree constraints.
	Collapses uint64
	WeightSum uint64

	// Comparison-fallback storage, nil until the first collapse that cannot
	// take the radix path: the k-element selection (the tournament reads
	// dst while it emits, so it cannot write in place) and the tournament's
	// cursors and tree, each reused by every later fallback collapse.
	scratch []T
	cursors []cursor[T]
	nodes   []int

	// sortBaseline switches Collapse to the materialize-and-sort reference
	// implementation. Test-only: benchmarks compare the merge against it and
	// correctness tests cross-check the two.
	sortBaseline bool
	sortScratch  []weighted[T]
}

// weighted is one element of the materialized baseline's working set.
type weighted[T cmp.Ordered] struct {
	v T
	w uint64
}

// NewCollapser returns a Collapser for buffers of capacity k.
func NewCollapser[T cmp.Ordered](k int) *Collapser[T] {
	return &Collapser[T]{k: k, evenLow: true}
}

// State returns the collapser's checkpointable state: the even-weight
// offset parity and the C/W counters.
func (c *Collapser[T]) State() (evenLow bool, collapses, weightSum uint64) {
	return c.evenLow, c.Collapses, c.WeightSum
}

// SetState restores a state captured with State.
func (c *Collapser[T]) SetState(evenLow bool, collapses, weightSum uint64) {
	c.evenLow = evenLow
	c.Collapses = collapses
	c.WeightSum = weightSum
}

// Reset returns the collapser to its initial state (offset parity and the
// C/W counters). Any fallback scratch already grown is kept; the radix
// path's arenas are shared and never held here.
func (c *Collapser[T]) Reset() {
	c.evenLow = true
	c.Collapses = 0
	c.WeightSum = 0
}

// Collapse merges the given full buffers (paper Section 3.2): conceptually
// each element of Xᵢ is replicated w(Xᵢ) times, the union is sorted, and k
// equally spaced elements are kept. The result is stored in dst (one of the
// inputs, chosen by the caller); every other input buffer is cleared. The
// output weight is Σ w(Xᵢ); its level must be set by the caller.
func (c *Collapser[T]) Collapse(bufs []*Buffer[T], dst *Buffer[T]) {
	if len(bufs) < 2 {
		panic("buffer: Collapse needs at least two buffers")
	}
	k := c.k
	var wOut uint64
	found := false
	for _, b := range bufs {
		if b.State != Full {
			panic("buffer: Collapse requires full buffers, got " + b.State.String())
		}
		if b.K() != k {
			panic("buffer: Collapse buffer capacity mismatch")
		}
		wOut += b.Weight
		if b == dst {
			found = true
		}
	}
	if !found {
		panic("buffer: Collapse dst must be one of the inputs")
	}

	// First target position in the weighted sequence (1-based), and the
	// constant stride wOut between targets.
	var first uint64
	if wOut%2 == 1 {
		first = (wOut + 1) / 2
	} else if c.evenLow {
		first = wOut / 2
		c.evenLow = false
	} else {
		first = (wOut + 2) / 2
		c.evenLow = true
	}

	if c.sortBaseline || !tryRadix(bufs, dst, first, wOut) {
		if c.scratch == nil {
			c.scratch = make([]T, 0, k)
		}
		out := c.scratch[:0]
		target := first
		emit := func(v T, lo, hi uint64) bool {
			for target >= lo && target <= hi {
				out = append(out, v)
				if len(out) == k {
					return false
				}
				target += wOut
			}
			return true
		}
		if c.sortBaseline {
			c.sortWalk(bufs, emit)
		} else {
			c.tournamentWalk(bufs, emit)
		}
		if len(out) != k {
			// Unreachable for full inputs: the weighted sequence has k·wOut
			// elements and targets fit inside it.
			panic(fmt.Sprintf("buffer: Collapse selected %d of %d elements", len(out), k))
		}
		copy(dst.Data, out)
	}

	for _, b := range bufs {
		if b != dst {
			b.Clear()
		}
	}
	dst.Fill = k
	dst.Weight = wOut
	dst.State = Full
	dst.unsorted = false

	c.Collapses++
	c.WeightSum += wOut
}

// tryRadix dispatches to the float64 radix fast path, which fuses the
// deferred leaf sorts, the weighted merge and the k-spaced selection into
// one pass over the concatenated raw inputs. It returns true when
// dst.Data[:k] holds the selection; any other element type, or a NaN in
// the inputs (whose ordering is defined by cmp.Less, not by bit pattern),
// falls back to the generic tournament merge with dst untouched.
func tryRadix[T cmp.Ordered](bufs []*Buffer[T], dst *Buffer[T], first, wOut uint64) bool {
	fb, ok := any(bufs).([]*Buffer[float64])
	if !ok {
		return false
	}
	return radixCollapse(fb, any(dst).(*Buffer[float64]), first, wOut)
}

// tournamentWalk is the Collapse-side weighted merge: a loser-tree-style
// tournament over the sorted input runs, costing O(log b) comparisons per
// emitted element instead of mergeWalk's O(b) linear scan, with all working
// storage pooled on the Collapser. Emission order (and tie-breaking by
// input index) matches mergeWalk exactly.
func (c *Collapser[T]) tournamentWalk(bufs []*Buffer[T], emit func(v T, lo, hi uint64) bool) {
	cur := c.cursors[:0]
	for _, b := range bufs {
		if b.Fill > 0 {
			b.EnsureSorted()
			cur = append(cur, cursor[T]{buf: b})
		}
	}
	c.cursors = cur // retain grown storage
	m := len(cur)
	if m == 0 {
		return
	}
	// t[m..2m-1] are the leaves (leaf m+i is cursor i); t[j] for j in [1, m)
	// is the winner of the match between t[2j] and t[2j+1]; t[1] is the
	// overall winner. An exhausted cursor loses every match; ties go to the
	// lower cursor index, matching mergeWalk's strict-< scan.
	if cap(c.nodes) < 2*m {
		c.nodes = make([]int, 2*m)
	}
	t := c.nodes[:2*m]
	play := func(a, b int) int {
		switch {
		case cur[b].done():
			return a
		case cur[a].done():
			return b
		case cur[b].head() < cur[a].head():
			return b
		default:
			return a
		}
	}
	for i := 0; i < m; i++ {
		t[m+i] = i
	}
	for j := m - 1; j >= 1; j-- {
		t[j] = play(t[2*j], t[2*j+1])
	}
	var cum uint64
	for {
		w := t[1]
		cr := &cur[w]
		if cr.done() {
			return
		}
		wt := cr.weight()
		if !emit(cr.head(), cum+1, cum+wt) {
			return
		}
		cum += wt
		cr.pos++
		// Replay the matches from w's leaf up to the root.
		for j := (m + w) / 2; j >= 1; j /= 2 {
			t[j] = play(t[2*j], t[2*j+1])
		}
	}
}

// sortWalk is the pre-merge reference implementation of the Collapse walk:
// materialize every (element, weight) pair, sort, and scan. Kept (behind
// the Collapser's test-only sortBaseline flag) so benchmarks can quantify
// the tournament merge and tests can cross-check it.
func (c *Collapser[T]) sortWalk(bufs []*Buffer[T], emit func(v T, lo, hi uint64) bool) {
	pairs := c.sortScratch[:0]
	for _, b := range bufs {
		for _, v := range b.Elements() {
			pairs = append(pairs, weighted[T]{v: v, w: b.Weight})
		}
	}
	c.sortScratch = pairs
	slices.SortStableFunc(pairs, func(a, b weighted[T]) int {
		return cmp.Compare(a.v, b.v)
	})
	var cum uint64
	for _, p := range pairs {
		if !emit(p.v, cum+1, cum+p.w) {
			return
		}
		cum += p.w
	}
}

// TotalWeightedCount returns Σ Fill·Weight over the buffers: the weighted
// length of the sequence an Output over them would scan.
func TotalWeightedCount[T cmp.Ordered](bufs []*Buffer[T]) uint64 {
	var s uint64
	for _, b := range bufs {
		s += b.WeightedCount()
	}
	return s
}

// WeightedRank returns the number of weighted elements ≤ v across the
// buffers — the inverse of Output. Dividing by TotalWeightedCount gives an
// estimate of the CDF at v with the same rank-error guarantee as the
// quantile queries (the weighted sequence approximates the input's rank
// structure within the algorithm's ε·N bound).
func WeightedRank[T cmp.Ordered](bufs []*Buffer[T], v T) uint64 {
	var rank uint64
	for _, b := range bufs {
		elems := b.Elements()
		// Elements are sorted: binary search for the first element > v.
		lo, hi := 0, len(elems)
		for lo < hi {
			mid := (lo + hi) / 2
			if elems[mid] <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		rank += uint64(lo) * b.Weight
	}
	return rank
}

// Output implements the Output operation (paper Section 3.3) for a batch of
// quantiles: for each φ it returns the element at weighted position
// ⌈φ·Σ(fillᵢ·wᵢ)⌉ of the weighted sorted union of the buffers. Output is
// non-destructive and may be invoked at any time (online aggregation). phis
// must lie in (0, 1]; results are returned in the order requested.
func Output[T cmp.Ordered](bufs []*Buffer[T], phis []float64) ([]T, error) {
	total := TotalWeightedCount(bufs)
	if total == 0 {
		return nil, fmt.Errorf("buffer: Output on empty state")
	}
	type req struct {
		target uint64
		idx    int
	}
	reqs := make([]req, len(phis))
	for i, phi := range phis {
		if phi <= 0 || phi > 1 {
			return nil, fmt.Errorf("buffer: quantile %v out of (0,1]", phi)
		}
		t := uint64(float64(total) * phi)
		if float64(t) < float64(total)*phi {
			t++
		}
		if t < 1 {
			t = 1
		}
		if t > total {
			t = total
		}
		reqs[i] = req{target: t, idx: i}
	}
	slices.SortFunc(reqs, func(a, b req) int {
		if a.target != b.target {
			if a.target < b.target {
				return -1
			}
			return 1
		}
		return a.idx - b.idx
	})
	out := make([]T, len(phis))
	next := 0
	mergeWalk(bufs, func(v T, lo, hi uint64) bool {
		for next < len(reqs) && reqs[next].target <= hi {
			out[reqs[next].idx] = v
			next++
		}
		return next < len(reqs)
	})
	if next != len(reqs) {
		return nil, fmt.Errorf("buffer: Output resolved %d of %d quantiles", next, len(reqs))
	}
	return out, nil
}
