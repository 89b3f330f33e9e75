package engine

import (
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/exact"
	"repro/internal/stream"
)

var phis = []float64{0.01, 0.25, 0.5, 0.75, 0.99}

func TestNormalize(t *testing.T) {
	for in, want := range map[string]string{
		"":      MRL99,
		"mrl99": MRL99,
		" KLL ": KLL,
		"Gk":    GK,
		"kll":   KLL,
	} {
		got, err := Normalize(in)
		if err != nil || got != want {
			t.Errorf("Normalize(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := Normalize("tdigest"); err == nil {
		t.Error("Normalize accepted an unknown engine")
	}
}

func TestNewRejectsUnknown(t *testing.T) {
	if _, err := NewIngest("tdigest", 0.01, 1e-3, 0, 1); err == nil {
		t.Fatal("NewIngest accepted an unknown engine")
	}
	if _, err := NewMergeState("tdigest", 0.01, 1e-3, 1, 0); err == nil {
		t.Fatal("NewMergeState accepted an unknown engine")
	}
}

// streams returns the seeded stream grid every engine is judged on.
func streams(n uint64) []stream.Source {
	return []stream.Source{
		stream.Uniform(n, 101),
		stream.Sorted(n),
		stream.Reversed(n),
		stream.Shuffled(n, 102),
		stream.Zipf(n, 103, 1.2, 1<<20),
	}
}

// TestDifferentialVsExact is the cross-engine differential grid: every
// engine consumes the same seeded streams and every φ-quantile answer must
// sit within that engine's own ε·N rank window of internal/exact.
func TestDifferentialVsExact(t *testing.T) {
	n := uint64(50000)
	if testing.Short() {
		n = 8000
	}
	for _, name := range Names() {
		for _, eps := range []float64{0.05, 0.01} {
			for _, src := range streams(n) {
				data := stream.Collect(src)
				e, err := NewIngest(name, eps, 1e-3, 0, 7)
				if err != nil {
					t.Fatalf("NewIngest(%s): %v", name, err)
				}
				e.AddAll(data)
				if e.Count() != uint64(len(data)) {
					t.Fatalf("%s/%s: count %d != %d", name, src.Name(), e.Count(), len(data))
				}
				vals, err := e.Quantiles(phis)
				if err != nil {
					t.Fatalf("%s/%s: Quantiles: %v", name, src.Name(), err)
				}
				for i, phi := range phis {
					if off := exact.RankError(data, vals[i], phi, eps); off != 0 {
						t.Errorf("%s eps=%g %s: phi=%g off by %d ranks",
							name, eps, src.Name(), phi, off)
					}
				}
			}
		}
	}
}

// TestMergeMatchesCombined is the per-engine merge property: a merge state
// fed two ingest surfaces' shipments must answer within the merged ε·N
// bound of the union stream — the same window a single sketch fed both
// streams is held to.
func TestMergeMatchesCombined(t *testing.T) {
	const eps = 0.02
	n := uint64(30000)
	if testing.Short() {
		n = 6000
	}
	for _, name := range Names() {
		dataA := stream.Collect(stream.Uniform(n, 31))
		dataB := stream.Collect(stream.Zipf(n, 32, 1.2, 1<<20))
		all := append(append([]float64(nil), dataA...), dataB...)

		m, err := NewMergeState(name, eps, 1e-3, 50, 0)
		if err != nil {
			t.Fatalf("NewMergeState(%s): %v", name, err)
		}
		for i, data := range [][]float64{dataA, dataB} {
			ing, err := NewIngest(name, eps, 1e-3, 0, uint64(51+i))
			if err != nil {
				t.Fatalf("NewIngest(%s): %v", name, err)
			}
			ing.AddAll(data)
			blob, count, err := ing.ShipAndReset(codec.Float64())
			if err != nil {
				t.Fatalf("%s: ShipAndReset: %v", name, err)
			}
			if count != n || ing.Count() != 0 {
				t.Fatalf("%s: shipped count %d != %d, %d left behind", name, count, n, ing.Count())
			}
			added, err := m.Merge(blob, count)
			if err != nil {
				t.Fatalf("%s: Merge: %v", name, err)
			}
			if added != n {
				t.Fatalf("%s: merged added=%d", name, added)
			}
		}
		if m.Count() != 2*n {
			t.Fatalf("%s: merged count %d", name, m.Count())
		}
		v, err := m.View()
		if err != nil {
			t.Fatalf("%s: View: %v", name, err)
		}
		vals, err := v.Quantiles(phis)
		if err != nil {
			t.Fatalf("%s: Quantiles: %v", name, err)
		}
		for i, phi := range phis {
			if off := exact.RankError(all, vals[i], phi, eps); off != 0 {
				t.Errorf("%s: merged phi=%g off by %d ranks", name, phi, off)
			}
		}
	}
}

// TestCrossEngineMergeRefused: shipping any engine's blob into any other
// engine's merge state must fail with an incompatibility, and must not
// mutate the target.
func TestCrossEngineMergeRefused(t *testing.T) {
	blobs := map[string][]byte{}
	for _, name := range Names() {
		e, err := NewIngest(name, 0.02, 1e-3, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		e.AddAll(stream.Collect(stream.Uniform(2000, 4)))
		blob, _, err := e.ShipAndReset(codec.Float64())
		if err != nil {
			t.Fatal(err)
		}
		blobs[name] = blob
	}
	for _, from := range Names() {
		for _, to := range Names() {
			if from == to {
				continue
			}
			e, err := NewMergeState(to, 0.02, 1e-3, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.Merge(blobs[from], 0)
			if err == nil {
				t.Fatalf("%s accepted a %s blob", to, from)
			}
			if !Incompatible(err) {
				t.Fatalf("%s→%s error not marked incompatible: %v", from, to, err)
			}
			if e.Count() != 0 {
				t.Fatalf("%s→%s: refused merge mutated the target", from, to)
			}
		}
	}
}

// TestCheckpointRestorePerEngine: every engine's merge state round-trips
// its state and continues answering within ε.
func TestCheckpointRestorePerEngine(t *testing.T) {
	for _, name := range Names() {
		data := stream.Collect(stream.Uniform(20000, 17))
		ing, err := NewIngest(name, 0.02, 1e-3, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		ing.AddAll(data)
		blob, count, err := ing.ShipAndReset(codec.Float64())
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewMergeState(name, 0.02, 1e-3, 9, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Merge(blob, count); err != nil {
			t.Fatal(err)
		}
		ck, err := e.Checkpoint()
		if err != nil {
			t.Fatalf("%s: Checkpoint: %v", name, err)
		}
		r, err := NewMergeState(name, 0.02, 1e-3, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(ck); err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		if r.Count() != e.Count() {
			t.Fatalf("%s: restored count %d != %d", name, r.Count(), e.Count())
		}
		v, err := r.View()
		if err != nil {
			t.Fatalf("%s: View after restore: %v", name, err)
		}
		vals, err := v.Quantiles(phis)
		if err != nil {
			t.Fatalf("%s: Quantiles after restore: %v", name, err)
		}
		for i, phi := range phis {
			if off := exact.RankError(data, vals[i], phi, 0.02); off != 0 {
				t.Errorf("%s: restored phi=%g off by %d ranks", name, phi, off)
			}
		}
	}
}

// TestGuardedConcurrent hammers every engine's ingest surface from writers
// and readers at once; run under -race this is the engine-layer
// thread-safety test.
func TestGuardedConcurrent(t *testing.T) {
	for _, name := range Names() {
		g, err := NewIngest(name, 0.05, 1e-2, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		g.AddAll(stream.Collect(stream.Uniform(1000, 6)))
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				g.AddAll(stream.Collect(stream.Uniform(2000, seed)))
			}(uint64(w + 10))
		}
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := g.Quantile(0.5); err != nil {
						t.Errorf("%s: Quantile: %v", name, err)
						return
					}
					g.Count()
					g.MemoryElements()
				}
			}()
		}
		wg.Wait()
		if got, want := g.Count(), uint64(9000); got != want {
			t.Fatalf("%s: count %d != %d", name, got, want)
		}
	}
}

// TestGuardedViewCache: two queries with no intervening writes must reuse
// the same view.
func TestGuardedViewCache(t *testing.T) {
	e, err := newEngine(KLL, 0.02, 1e-3, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := Guard(e)
	g.AddAll(stream.Collect(stream.Uniform(5000, 2)))
	v1, err := g.View()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := g.View()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("view rebuilt with no intervening writes")
	}
	g.AddAll([]float64{3.14})
	v3, err := g.View()
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("view not invalidated by a write")
	}
}
