package quantile

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/view"
)

// Concurrent is a goroutine-safe quantile summary. Internally it shards
// the stream across independent unknown-N sketches (each shard sees a
// ~1/P slice of the stream, which preserves the guarantee — the algorithm
// is arrival-order oblivious). Queries are served from an immutable merged
// view — a single sorted weighted array built once from a Section 6
// coordinator merge of shard snapshots — cached behind an atomic pointer
// and keyed on a monotonic version counter that every mutation bumps.
// Between mutations, any number of readers answer from the same view by
// binary search with zero allocations and zero lock traffic; after a
// mutation, the first reader (and only that reader — rebuilds are
// singleflight) pays one re-merge, and everyone else either reuses the old
// view or waits for exactly the one rebuild in flight.
type Concurrent[T cmp.Ordered] struct {
	eps, delta float64
	shards     []*cShard[T]
	ctr        atomic.Uint64
	epochs     atomic.Uint64
	seed       uint64

	// version is bumped after every completed mutation; the cached view
	// remembers the version it was built at, so version equality means the
	// view still reflects every acknowledged write.
	version atomic.Uint64
	cache   atomic.Pointer[cachedView[T]]
	// buildMu serializes view rebuilds (singleflight): under steady ingest
	// N concurrent readers trigger one merge, not N.
	buildMu sync.Mutex

	viewHits         atomic.Uint64
	viewMisses       atomic.Uint64
	viewRebuilds     atomic.Uint64
	viewRebuildNanos atomic.Uint64
}

type cShard[T cmp.Ordered] struct {
	mu sync.Mutex
	sk *core.Sketch[T]

	// count and mem mirror sk.Count() / sk.MemoryElements(); they are
	// written under mu and read lock-free, so Count() and MemoryElements()
	// never touch a shard mutex.
	count atomic.Uint64
	mem   atomic.Int64
}

// cachedView pairs an immutable query view with the version counter value
// it was built at.
type cachedView[T cmp.Ordered] struct {
	v       *view.View[T]
	version uint64
}

// NewConcurrent returns a goroutine-safe sketch with the given shard
// count (0 selects 8). Guarantees match New: every estimate is within
// ε·N of exact with probability ≥ 1−δ.
func NewConcurrent[T cmp.Ordered](eps, delta float64, shards int, opts ...Option) (*Concurrent[T], error) {
	if shards <= 0 {
		shards = 8
	}
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	proto, err := New[T](eps, delta, opts...)
	if err != nil {
		return nil, err
	}
	cfg := proto.inner.Config()
	c := &Concurrent[T]{eps: eps, delta: delta, seed: o.seed}
	for i := 0; i < shards; i++ {
		scfg := cfg
		scfg.Seed = o.seed + uint64(i)*0x9e3779b97f4a7c15 + 1
		sk, err := core.NewSketch[T](scfg)
		if err != nil {
			return nil, err
		}
		sh := &cShard[T]{sk: sk}
		sh.mem.Store(int64(sk.MemoryElements()))
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// sync refreshes a shard's lock-free counter mirrors; call with sh.mu held
// after mutating sh.sk.
func (sh *cShard[T]) sync() {
	sh.count.Store(sh.sk.Count())
	sh.mem.Store(int64(sh.sk.MemoryElements()))
}

// Add feeds one element. Safe for concurrent use; under contention the
// element is routed to whichever shard is free.
func (c *Concurrent[T]) Add(v T) {
	start := c.ctr.Add(1)
	n := uint64(len(c.shards))
	for i := uint64(0); i < n; i++ {
		sh := c.shards[(start+i)%n]
		if sh.mu.TryLock() {
			sh.sk.Add(v)
			sh.sync()
			sh.mu.Unlock()
			c.version.Add(1)
			return
		}
	}
	// Everything busy: block on the designated shard.
	sh := c.shards[start%n]
	sh.mu.Lock()
	sh.sk.Add(v)
	sh.sync()
	sh.mu.Unlock()
	c.version.Add(1)
}

// addAllChunk is how many elements AddAll feeds per shard-lock
// acquisition: large enough to amortize the lock and dispatch to the
// bulk fill path, small enough that chunks from concurrent callers
// interleave across shards.
const addAllChunk = 2048

// AddAll feeds a slice of elements. The slice is split into chunks and
// each chunk is ingested under a single shard lock via the sketch's bulk
// path, so the per-element cost is a fraction of calling Add in a loop.
func (c *Concurrent[T]) AddAll(vs []T) {
	for len(vs) > 0 {
		n := len(vs)
		if n > addAllChunk {
			n = addAllChunk
		}
		c.addChunk(vs[:n])
		vs = vs[n:]
	}
}

// addChunk routes one chunk to a free shard, mirroring Add's TryLock scan.
func (c *Concurrent[T]) addChunk(vs []T) {
	start := c.ctr.Add(1)
	n := uint64(len(c.shards))
	for i := uint64(0); i < n; i++ {
		sh := c.shards[(start+i)%n]
		if sh.mu.TryLock() {
			sh.sk.AddAll(vs)
			sh.sync()
			sh.mu.Unlock()
			c.version.Add(1)
			return
		}
	}
	sh := c.shards[start%n]
	sh.mu.Lock()
	sh.sk.AddAll(vs)
	sh.sync()
	sh.mu.Unlock()
	c.version.Add(1)
}

// Count returns the total number of elements consumed. It reads per-shard
// atomic mirrors and takes no locks, so it is safe to poll at any rate;
// under concurrent ingest it reflects every completed Add/AddAll chunk.
func (c *Concurrent[T]) Count() uint64 {
	var n uint64
	for _, sh := range c.shards {
		n += sh.count.Load()
	}
	return n
}

// merge snapshots every shard briefly under its lock, then builds a
// coordinator over private clones — the expensive work happens off-lock.
func (c *Concurrent[T]) merge() (*parallel.Coordinator[T], error) {
	states := make([]core.SketchState[T], 0, len(c.shards))
	for _, sh := range c.shards {
		sh.mu.Lock()
		if sh.sk.Count() > 0 {
			states = append(states, sh.sk.Snapshot())
		}
		sh.mu.Unlock()
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("quantile: query on empty concurrent sketch")
	}
	cfg := states[0]
	coord, err := parallel.NewCoordinator[T](cfg.K, cfg.B, c.seed^0xc0de)
	if err != nil {
		return nil, err
	}
	for _, st := range states {
		clone, err := core.Restore(st)
		if err != nil {
			return nil, err
		}
		if err := coord.Receive(parallel.Ship(clone)); err != nil {
			return nil, err
		}
	}
	return coord, nil
}

// buildView runs one coordinator merge and freezes it into a view.
func (c *Concurrent[T]) buildView() (*view.View[T], error) {
	coord, err := c.merge()
	if err != nil {
		return nil, err
	}
	return coord.View()
}

// view returns the current query view, rebuilding it only when a mutation
// has landed since the cached one was built. The fast path is two atomic
// loads and no allocations.
func (c *Concurrent[T]) view() (*view.View[T], error) {
	ver := c.version.Load()
	if cv := c.cache.Load(); cv != nil && cv.version == ver {
		c.viewHits.Add(1)
		return cv.v, nil
	}
	c.viewMisses.Add(1)
	c.buildMu.Lock()
	defer c.buildMu.Unlock()
	// Re-check under the build lock: another reader may have rebuilt while
	// this one waited, and no further mutation invalidated it.
	ver = c.version.Load()
	if cv := c.cache.Load(); cv != nil && cv.version == ver {
		return cv.v, nil
	}
	// Read the version BEFORE snapshotting: writes racing the snapshot may
	// or may not be captured, but they bump the counter past ver, so the
	// next query after this rebuild sees a stale cache and rebuilds again —
	// an acknowledged write is never invisible for longer than one rebuild.
	ver = c.version.Load()
	begin := time.Now()
	v, err := c.buildView()
	if err != nil {
		return nil, err
	}
	c.viewRebuildNanos.Add(uint64(time.Since(begin)))
	c.cache.Store(&cachedView[T]{v: v, version: ver})
	c.viewRebuilds.Add(1)
	return v, nil
}

// Quantiles returns estimates over everything added so far, in request
// order. Safe to call while other goroutines keep adding; the result
// reflects some consistent-per-shard prefix of the concurrent stream.
// Served from the cached view: only the result slice is allocated.
func (c *Concurrent[T]) Quantiles(phis []float64) ([]T, error) {
	v, err := c.view()
	if err != nil {
		return nil, err
	}
	return v.Quantiles(phis)
}

// CDF estimates the fraction of elements ≤ v across all shards. On a warm
// view this is a single binary search with zero allocations.
func (c *Concurrent[T]) CDF(v T) (float64, error) {
	vw, err := c.view()
	if err != nil {
		return 0, err
	}
	return vw.CDF(v), nil
}

// Quantile returns a single estimate. On a warm view this is a single
// binary search with zero allocations.
func (c *Concurrent[T]) Quantile(phi float64) (T, error) {
	v, err := c.view()
	if err != nil {
		var zero T
		return zero, err
	}
	return v.Quantile(phi)
}

// ViewStats reports the query-cache counters: hits answered straight from
// the cached view, misses that found it stale (or absent), and the merges
// actually performed. misses − rebuilds is the singleflight savings:
// queries that waited out someone else's rebuild instead of running their
// own.
func (c *Concurrent[T]) ViewStats() (hits, misses, rebuilds uint64) {
	return c.viewHits.Load(), c.viewMisses.Load(), c.viewRebuilds.Load()
}

// ViewRebuildSeconds returns the cumulative wall time spent rebuilding the
// cached query view — the merge cost the singleflight cache amortizes over
// every read between mutations.
func (c *Concurrent[T]) ViewRebuildSeconds() float64 {
	return time.Duration(c.viewRebuildNanos.Load()).Seconds()
}

// MemoryElements returns the summed shard footprints, read lock-free from
// per-shard atomic mirrors.
func (c *Concurrent[T]) MemoryElements() int {
	var m int64
	for _, sh := range c.shards {
		m += sh.mem.Load()
	}
	return int(m)
}

// Epsilon returns the configured rank-error bound.
func (c *Concurrent[T]) Epsilon() float64 { return c.eps }

// Delta returns the configured failure probability.
func (c *Concurrent[T]) Delta() float64 { return c.delta }

// EngineName returns "mrl99": a Concurrent is the MRL99 engine's ingest
// surface in the serving layers' engine registry.
func (c *Concurrent[T]) EngineName() string { return "mrl99" }

// Shards returns the number of ingest shards.
func (c *Concurrent[T]) Shards() int { return len(c.shards) }

// Layout returns the per-shard memory layout: b buffers of k elements,
// sampling onset at tree height h.
func (c *Concurrent[T]) Layout() (b, k, h int) {
	cfg := c.shards[0].sk.Config()
	return cfg.B, cfg.K, cfg.H
}

// shipAndReset consumes the sketch's current contents into a single
// Section 6 shipment and installs fresh shard sketches, so the next epoch
// starts empty. It is the cluster worker's epoch cycle: ship the window,
// keep ingesting. Concurrent Adds racing the sweep land either in the
// returned shipment or in the next epoch — never in both, never lost.
func (c *Concurrent[T]) shipAndReset() (parallel.Shipment[T], error) {
	gen := c.epochs.Add(1)
	var old []*core.Sketch[T]
	for i, sh := range c.shards {
		sh.mu.Lock()
		if sh.sk.Count() > 0 {
			cfg := sh.sk.Config()
			cfg.Seed = c.seed + uint64(i)*0x9e3779b97f4a7c15 + gen*0x2545f4914f6cdd1d + 1
			fresh, err := core.NewSketch[T](cfg)
			if err != nil {
				sh.mu.Unlock()
				return parallel.Shipment[T]{}, err
			}
			old = append(old, sh.sk)
			sh.sk = fresh
			sh.sync()
		}
		sh.mu.Unlock()
	}
	c.version.Add(1)
	if len(old) == 0 {
		return parallel.Shipment[T]{}, nil
	}
	// Merge the consumed shards through a private Section 6 coordinator
	// and re-ship its state, yielding one bounded-size shipment per epoch.
	cfg := old[0].Config()
	coord, err := parallel.NewCoordinator[T](cfg.K, cfg.B, c.seed^gen^0x51ed)
	if err != nil {
		return parallel.Shipment[T]{}, err
	}
	for _, sk := range old {
		if err := coord.Receive(parallel.Ship(sk)); err != nil {
			return parallel.Shipment[T]{}, err
		}
	}
	return coord.Ship(), nil
}
