package engine

import (
	"sync"

	"repro/internal/codec"
	"repro/internal/view"
)

// Guarded wraps an Engine with a mutex and a version-keyed view cache,
// making it an Ingest for the serving layers (httpapi, cluster workers).
// Because the cached view is immutable, a query against an unchanged
// engine is a lock acquisition plus a binary search — no rebuild.
type Guarded struct {
	mu sync.Mutex
	e  Engine

	cached  *view.View[float64]
	cachedV uint64
}

// Guard wraps e. The engine must not be used directly afterwards.
func Guard(e Engine) *Guarded { return &Guarded{e: e} }

// AddAll feeds a batch.
func (g *Guarded) AddAll(vs []float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.e.AddAll(vs)
}

// ShipAndReset cuts and serializes the current epoch. KLL and GK frames
// carry raw float64, so the element codec is unused.
func (g *Guarded) ShipAndReset(codec.Element[float64]) ([]byte, uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.e.Ship()
}

// View returns the engine's current immutable view, rebuilding only when
// the engine's version moved since the cached build.
func (g *Guarded) View() (*view.View[float64], error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.viewLocked()
}

func (g *Guarded) viewLocked() (*view.View[float64], error) {
	if v := g.e.Version(); g.cached == nil || g.cachedV != v {
		built, err := g.e.View()
		if err != nil {
			return nil, err
		}
		// An engine may rearrange itself while materializing (GK
		// flushes); key the cache on the version after the build so the
		// rearrangement does not read as staleness.
		g.cached, g.cachedV = built, g.e.Version()
	}
	return g.cached, nil
}

// Quantiles answers a batch of φ-quantile queries from the cached view.
func (g *Guarded) Quantiles(phis []float64) ([]float64, error) {
	v, err := g.View()
	if err != nil {
		return nil, err
	}
	return v.Quantiles(phis)
}

// Quantile answers a single φ-quantile query from the cached view.
func (g *Guarded) Quantile(phi float64) (float64, error) {
	v, err := g.View()
	if err != nil {
		return 0, err
	}
	return v.Quantile(phi)
}

// CDF answers a rank query from the cached view: the fraction of elements
// ≤ x.
func (g *Guarded) CDF(x float64) (float64, error) {
	v, err := g.View()
	if err != nil {
		return 0, err
	}
	return v.CDF(x), nil
}

// Count returns the number of elements consumed.
func (g *Guarded) Count() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.e.Count()
}

// MemoryElements returns the engine's held element slots.
func (g *Guarded) MemoryElements() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.e.MemoryElements()
}

// Epsilon returns the engine's rank-error target.
func (g *Guarded) Epsilon() float64 { return g.e.Epsilon() }

// Delta returns the engine's failure-probability target.
func (g *Guarded) Delta() float64 { return g.e.Delta() }

// EngineName returns the wrapped engine's registry name.
func (g *Guarded) EngineName() string { return g.e.EngineName() }
