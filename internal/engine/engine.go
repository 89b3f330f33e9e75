// Package engine defines the two roles a quantile-sketch engine plays in
// the serving layers, and the registry that builds them by name:
//
//   - Ingest, the goroutine-safe ingest surface that httpapi.Server and
//     cluster.Worker hold: batched adds, cached queries, and the epoch cut
//     a worker ships upstream;
//   - MergeState, the merge half that cluster.Coordinator holds under its
//     mutex: it admits peer shipments, answers through an immutable view,
//     cuts its own shipment (the aggregator half-turn) and checkpoints.
//
// The paper's MRL99 stack fills both roles with its native types: the
// sharded *quantile.Concurrent sketch for ingest and mrl99.MergeState, a
// Section 6 coordinator, for merging. The KLL and GK baselines are
// single-threaded Engines in subpackages that satisfy the interfaces
// structurally, so the backends stay free of any dependency on this
// registry: an Engine is a MergeState as it stands, and Guard makes it an
// Ingest by adding a mutex and a version-keyed cached view.
package engine

import (
	"errors"
	"fmt"
	"strings"

	quantile "repro"
	"repro/internal/codec"
	"repro/internal/engine/gk"
	"repro/internal/engine/kll"
	"repro/internal/engine/mrl99"
	"repro/internal/view"
)

// Engine names, as accepted by flags, config fields and wire tags.
const (
	MRL99 = mrl99.Name
	KLL   = kll.Name
	GK    = gk.Name
)

// Names lists the registered engines in presentation order.
func Names() []string { return []string{MRL99, KLL, GK} }

// Ingest is the ingest surface of a serving role. Implementations are
// safe for concurrent use.
type Ingest interface {
	AddAll(vs []float64)
	Quantile(phi float64) (float64, error)
	Quantiles(phis []float64) ([]float64, error)
	CDF(x float64) (float64, error)

	// ShipAndReset cuts everything added since the last cut into one
	// shipment blob plus the element count it stands for, and starts the
	// next epoch; with nothing added it returns (nil, 0, nil). ec encodes
	// the elements of MRL99 shipments; KLL and GK frames carry raw
	// float64 and take no codec.
	ShipAndReset(ec codec.Element[float64]) ([]byte, uint64, error)

	Count() uint64
	MemoryElements() int
	Epsilon() float64
	Delta() float64
	EngineName() string
}

// MergeState is the merge half of a coordinator or aggregator. It is not
// safe for concurrent use; the owner serializes every call.
type MergeState interface {
	// Merge folds in a blob cut by a peer of the same engine, and leaves
	// the state untouched when it fails; want, when nonzero, is the count
	// the sender claimed alongside the blob. A blob of another engine or
	// layout yields an error for which Incompatible reports true.
	Merge(blob []byte, want uint64) (uint64, error)

	// View materializes an immutable query view of the merged contents.
	View() (*view.View[float64], error)

	// Ship cuts the merged contents into one shipment blob plus the count
	// it stands for and resets the state; an empty state returns
	// (nil, 0, nil).
	Ship() ([]byte, uint64, error)

	// Checkpoint serializes the complete state (including any RNG) so
	// Restore replays byte-identically.
	Checkpoint() ([]byte, error)
	Restore(blob []byte) error

	Count() uint64
	MemoryElements() int
}

// Engine is a single-threaded KLL or GK summary: a MergeState as it
// stands, and an Ingest once wrapped in Guard.
type Engine interface {
	MergeState
	AddAll(vs []float64)
	Epsilon() float64
	Delta() float64
	// Version is a mutation counter that cached views key on.
	Version() uint64
	EngineName() string
}

// Normalize canonicalizes an engine name: empty selects MRL99 (the
// default), case and surrounding space are ignored, anything unknown is an
// error listing the choices.
func Normalize(name string) (string, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if n == "" {
		return MRL99, nil
	}
	for _, known := range Names() {
		if n == known {
			return n, nil
		}
	}
	return "", fmt.Errorf("engine: unknown engine %q (choices: %s)", name, strings.Join(Names(), ", "))
}

// NewIngest builds the named engine's ingest surface for the (ε, δ)
// target. shards sizes the MRL99 sketch (0 selects its default); the seed
// drives every randomized decision (GK draws no coins), so equal seeds
// replay byte-identically.
func NewIngest(name string, eps, delta float64, shards int, seed uint64) (Ingest, error) {
	n, err := Normalize(name)
	if err != nil {
		return nil, err
	}
	if n == MRL99 {
		return quantile.NewConcurrent[float64](eps, delta, shards, quantile.WithSeed(seed))
	}
	e, err := newEngine(n, eps, delta, seed)
	if err != nil {
		return nil, err
	}
	return Guard(e), nil
}

// NewMergeState builds the named engine's merge state for the (ε, δ)
// target at the given tier of a merge tree (0 is the root; MRL99 stamps it
// into its checkpoints).
func NewMergeState(name string, eps, delta float64, seed uint64, level int) (MergeState, error) {
	n, err := Normalize(name)
	if err != nil {
		return nil, err
	}
	if n == MRL99 {
		return mrl99.NewMergeState(eps, delta, seed, level)
	}
	return newEngine(n, eps, delta, seed)
}

// newEngine builds a KLL or GK engine.
func newEngine(name string, eps, delta float64, seed uint64) (Engine, error) {
	if name == KLL {
		return kll.New(eps, delta, seed)
	}
	return gk.New(eps, delta, seed)
}

// Incompatible reports whether err marks a permanent engine or parameter
// mismatch — a wrong engine tag or frame kind, a foreign ε/δ, a layout
// conflict — as opposed to a transient or corruption failure. Serving
// layers map it to HTTP 409 so shippers drop rather than retry.
func Incompatible(err error) bool {
	var inc interface{ Incompatible() bool }
	return errors.As(err, &inc) && inc.Incompatible()
}
