// Package mrl99 is the merge half of the paper's MRL99 engine: a Section 6
// coordinator (parallel.Coordinator) behind the engine.MergeState
// contract. The ingest half is the sharded quantile.Concurrent sketch
// itself. Shipments are raw codec.MarshalShipment frames and checkpoints
// raw codec.MarshalCoordinator frames, so every byte on the wire and on
// disk is the native stack's own.
package mrl99

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/optimize"
	"repro/internal/parallel"
	"repro/internal/view"
)

// Name is this engine's registry name.
const Name = "mrl99"

// MergeState merges MRL99 shipments through a Section 6 coordinator. It
// is not safe for concurrent use; cluster.Coordinator holds it under its
// mutex.
type MergeState struct {
	k, b  int
	seed  uint64
	level int
	// gen counts Ship cuts; each cut reseeds the fresh coordinator, so
	// every window's sampling decisions are independent yet replayable.
	gen   uint64
	coord *parallel.Coordinator[float64]
}

// NewMergeState returns an empty merge state with the (b, k) layout the
// optimizer picks for (ε, δ), stamping level into its checkpoints.
func NewMergeState(eps, delta float64, seed uint64, level int) (*MergeState, error) {
	p, err := optimize.UnknownN(eps, delta)
	if err != nil {
		return nil, err
	}
	m := &MergeState{k: p.K, b: p.B, seed: seed, level: level}
	if m.coord, err = m.fresh(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *MergeState) fresh() (*parallel.Coordinator[float64], error) {
	c, err := parallel.NewCoordinator[float64](m.k, m.b, m.seed^(m.gen*0x9e3779b97f4a7c15))
	if err != nil {
		return nil, err
	}
	c.SetLevel(m.level)
	return c, nil
}

// Merge decodes a shipment blob and admits its buffers through the
// Section 6 merge rules. A blob of another frame kind (another engine's)
// or another buffer size is an incompatibility; a failed admission rolls
// the coordinator back to its state before the call.
func (m *MergeState) Merge(blob []byte, want uint64) (uint64, error) {
	sh, err := codec.UnmarshalShipment(blob, codec.Float64())
	if err != nil {
		return 0, fmt.Errorf("decoding shipment: %w", err)
	}
	if want != 0 && sh.Count != want {
		return 0, fmt.Errorf("envelope count %d != shipment count %d", want, sh.Count)
	}
	// Receive mutates state before it can fail (a foreign buffer size, a
	// pathological shipment), so snapshot first and roll back on error.
	undo := m.coord.Snapshot()
	if err := m.coord.Receive(sh); err != nil {
		if rb, rerr := parallel.RestoreCoordinator(undo); rerr == nil {
			m.coord = rb
		}
		return 0, &compatError{err.Error()}
	}
	return sh.Count, nil
}

// View materializes the merged contents as an immutable query view.
func (m *MergeState) View() (*view.View[float64], error) { return m.coord.View() }

// Ship collapses the merged contents into one shipment blob (at most one
// full buffer plus the partial accumulator) and installs a fresh, reseeded
// coordinator in its place.
func (m *MergeState) Ship() ([]byte, uint64, error) {
	if m.coord.Count() == 0 {
		return nil, 0, nil
	}
	m.gen++
	fresh, err := m.fresh()
	if err != nil {
		return nil, 0, err
	}
	sh := m.coord.Ship() // consumes the old coordinator
	m.coord = fresh
	blob, err := codec.MarshalShipment(sh, codec.Float64())
	if err != nil {
		return nil, 0, err
	}
	return blob, sh.Count, nil
}

// Checkpoint serializes the coordinator (tree, B0, RNG and level stamp).
func (m *MergeState) Checkpoint() ([]byte, error) {
	return codec.MarshalCoordinator(m.coord.Snapshot(), codec.Float64())
}

// Restore replaces the coordinator with one from a Checkpoint blob.
func (m *MergeState) Restore(blob []byte) error {
	st, err := codec.UnmarshalCoordinator(blob, codec.Float64())
	if err != nil {
		return err
	}
	coord, err := parallel.RestoreCoordinator(st)
	if err != nil {
		return err
	}
	m.coord = coord
	return nil
}

// Count returns the element count merged so far.
func (m *MergeState) Count() uint64 { return m.coord.Count() }

// MemoryElements returns the element slots resident in the merge tree and
// B0.
func (m *MergeState) MemoryElements() int { return m.coord.MemoryElements() }

// MergeHeight returns h′, the merge tree's height.
func (m *MergeState) MergeHeight() int { return m.coord.MergeHeight() }

// Layout returns the buffer layout: b buffers of k elements.
func (m *MergeState) Layout() (b, k int) { return m.b, m.k }

// compatError marks a permanent layout mismatch (engine.Incompatible
// reports true for it).
type compatError struct{ msg string }

func (e *compatError) Error() string      { return e.msg }
func (e *compatError) Incompatible() bool { return true }
