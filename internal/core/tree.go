package core

import (
	"cmp"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/policy"
)

// Tree is the deterministic collapse-tree machine shared by every algorithm
// in the framework: it owns up to b physical buffers of k elements, hands
// out empty buffers for New operations (reclaiming space with policy-driven
// Collapse operations when none is empty), and tracks the tree height that
// drives the unknown-N sampling schedule.
//
// Buffers may be allocated lazily according to an allocation schedule
// (paper Section 5); by default the first b New operations allocate
// buffers one at a time as needed, which is the paper's "allocate the set
// of b buffers one by one, as required" amelioration.
//
// A Tree's resident memory is its buffers plus O(b) bookkeeping: its
// Collapser keeps only the parity bit and the C/W counters, and the float64
// collapse borrows its up-to-32·b·k-byte radix arena from a free list shared
// by every tree in the process for the length of one Collapse. Scratch thus
// scales with the collapses in flight, not with the number of trees — what
// lets a keyed store (one tree per key, plus one per window slot) stay near
// the paper's #keys·b·k Group-By bound.
type Tree[T cmp.Ordered] struct {
	k          int
	maxBuffers int
	// schedule[i] is the minimum number of completed leaves before buffer i
	// may be allocated (schedule[0] and schedule[1] are normally 0 and 1).
	// nil means "allocate whenever needed".
	schedule []uint64

	bufs   []*buffer.Buffer[T]
	col    *buffer.Collapser[T]
	pol    policy.Policy
	leaves uint64
	height int

	// tracer observes structural events (nil = disabled); ids maps live
	// buffers to the logical node identity the tracer knows them by.
	tracer Tracer
	ids    map[*buffer.Buffer[T]]uint64
	nextID uint64

	// Pooled CollapseOnce working set: the full-buffer scan, the policy's
	// selection scratch and the selected set, reused across every collapse
	// so the steady-state ingest loop performs no per-collapse allocation.
	colFull    []*buffer.Buffer[T]
	colLevels  []int
	colSet     []*buffer.Buffer[T]
	polScratch policy.Scratch
}

// Tracer observes the logical structure of the collapse tree as it grows:
// each completed New operation reports a leaf, each Collapse the identities
// it merged. Used to reconstruct and render the paper's Figure 2/3 trees.
type Tracer interface {
	// Leaf is invoked when a New operation completes.
	Leaf(id uint64, level int, weight uint64)
	// Collapse is invoked after a collapse merges the nodes in to the new
	// node out.
	Collapse(in []uint64, out uint64, level int, weight uint64)
}

// SetTracer installs (or removes, with nil) a structural tracer. Install
// before feeding data; events are not replayed retroactively.
func (t *Tree[T]) SetTracer(tr Tracer) {
	t.tracer = tr
	if tr != nil && t.ids == nil {
		t.ids = make(map[*buffer.Buffer[T]]uint64)
	}
}

// NewTree returns a Tree of at most b buffers of k elements under the given
// collapse policy. schedule, if non-nil, must have length b and be
// non-decreasing; it postpones buffer i's allocation until schedule[i]
// leaves have been produced.
func NewTree[T cmp.Ordered](k, b int, pol policy.Policy, schedule []uint64) (*Tree[T], error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: buffer size k must be positive, got %d", k)
	}
	if b < 2 {
		return nil, fmt.Errorf("core: need at least 2 buffers, got %d", b)
	}
	if pol == nil {
		pol = policy.MRL()
	}
	if schedule != nil {
		if len(schedule) != b {
			return nil, fmt.Errorf("core: schedule length %d != b %d", len(schedule), b)
		}
		for i := 1; i < len(schedule); i++ {
			if schedule[i] < schedule[i-1] {
				return nil, fmt.Errorf("core: schedule must be non-decreasing at %d", i)
			}
		}
		if schedule[1] > 1 {
			return nil, fmt.Errorf("core: schedule[1] = %d would deadlock (must be <= 1)", schedule[1])
		}
	}
	return &Tree[T]{
		k:          k,
		maxBuffers: b,
		schedule:   schedule,
		col:        buffer.NewCollapser[T](k),
		pol:        pol,
	}, nil
}

// K returns the buffer capacity.
func (t *Tree[T]) K() int { return t.k }

// MaxBuffers returns b, the buffer budget.
func (t *Tree[T]) MaxBuffers() int { return t.maxBuffers }

// Allocated returns the number of buffers allocated so far.
func (t *Tree[T]) Allocated() int { return len(t.bufs) }

// Height returns the current height of the collapse tree: the maximum level
// of any buffer produced so far. It never decreases.
func (t *Tree[T]) Height() int { return t.height }

// Leaves returns the number of completed New operations.
func (t *Tree[T]) Leaves() uint64 { return t.leaves }

// Policy returns the collapse policy in use.
func (t *Tree[T]) Policy() policy.Policy { return t.pol }

// CollapseCount returns the number of Collapse operations performed (the C
// of the paper's Section 4.2) and the sum of their output weights (W).
func (t *Tree[T]) CollapseCount() (c, weightSum uint64) {
	return t.col.Collapses, t.col.WeightSum
}

// AcquireEmpty returns an empty buffer for a New operation, allocating a new
// buffer if the budget and schedule allow, or collapsing full buffers
// otherwise.
func (t *Tree[T]) AcquireEmpty() *buffer.Buffer[T] {
	for _, b := range t.bufs {
		if b.State == buffer.Empty {
			return b
		}
	}
	if len(t.bufs) < t.maxBuffers && (t.schedule == nil || t.leaves >= t.schedule[len(t.bufs)]) {
		b := buffer.New[T](t.k)
		t.bufs = append(t.bufs, b)
		return b
	}
	t.CollapseOnce()
	for _, b := range t.bufs {
		if b.State == buffer.Empty {
			return b
		}
	}
	panic("core: collapse freed no buffer")
}

// CollapseOnce performs a single policy-driven collapse over the currently
// full buffers. It panics if fewer than two buffers are full (the schedule
// validator prevents this state from ever being reachable during normal
// operation).
func (t *Tree[T]) CollapseOnce() {
	full := t.colFull[:0]
	levels := t.colLevels[:0]
	for _, b := range t.bufs {
		if b.State == buffer.Full {
			full = append(full, b)
			levels = append(levels, b.Level)
		}
	}
	t.colFull, t.colLevels = full, levels
	if len(full) < 2 {
		panic(fmt.Sprintf("core: collapse with %d full buffers", len(full)))
	}
	var idx []int
	var outLevel int
	if ss, ok := t.pol.(policy.ScratchSelector); ok {
		idx, outLevel = ss.SelectScratch(levels, &t.polScratch)
	} else {
		idx, outLevel = t.pol.Select(levels)
	}
	set := t.colSet[:0]
	for _, j := range idx {
		set = append(set, full[j])
	}
	t.colSet = set
	dst := set[0]
	var inIDs []uint64
	if t.tracer != nil {
		for _, b := range set {
			inIDs = append(inIDs, t.ids[b])
			delete(t.ids, b)
		}
	}
	t.col.Collapse(set, dst)
	dst.Level = outLevel
	if outLevel > t.height {
		t.height = outLevel
	}
	if t.tracer != nil {
		t.nextID++
		t.ids[dst] = t.nextID
		t.tracer.Collapse(inIDs, t.nextID, outLevel, dst.Weight)
	}
}

// LeafDone records that a New operation has completed with the given buffer.
func (t *Tree[T]) LeafDone(b *buffer.Buffer[T]) {
	t.leaves++
	if b.Level > t.height {
		t.height = b.Level
	}
	if t.tracer != nil {
		t.nextID++
		t.ids[b] = t.nextID
		t.tracer.Leaf(t.nextID, b.Level, b.Weight)
	}
}

// NonEmpty returns all buffers currently holding data (Full or Partial),
// the set an Output operation runs over.
func (t *Tree[T]) NonEmpty() []*buffer.Buffer[T] {
	return t.NonEmptyAppend(nil)
}

// NonEmptyAppend appends the non-empty buffers to dst and returns the
// extended slice. Passing a recycled dst[:0] makes repeated anytime queries
// allocation-free once the slice has grown to the working-set size.
func (t *Tree[T]) NonEmptyAppend(dst []*buffer.Buffer[T]) []*buffer.Buffer[T] {
	for _, b := range t.bufs {
		if b.State != buffer.Empty {
			dst = append(dst, b)
		}
	}
	return dst
}

// Reset returns the tree to its initial state, keeping allocated buffers
// when keepAlloc is true (memory is reused) or releasing them otherwise.
func (t *Tree[T]) Reset(keepAlloc bool) {
	if keepAlloc {
		for _, b := range t.bufs {
			b.Clear()
		}
	} else {
		t.bufs = nil
	}
	t.col.Reset()
	t.leaves = 0
	t.height = 0
}

// MemoryElements returns the number of element slots currently allocated —
// the paper's memory metric (Tables 1–2 report b·k). Collapse working
// storage is not counted: the tree never holds it between collapses.
func (t *Tree[T]) MemoryElements() int { return len(t.bufs) * t.k }
