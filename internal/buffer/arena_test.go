package buffer

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

// arenaCase is one collapse input: the raw (unsorted) contents and weight
// of each buffer, and which of them receives the output.
type arenaCase struct {
	data    [][]float64
	weights []uint64
	dst     int
}

// build materializes the case as Full buffers with the deferred-sort flag
// set, the shape a completed fill hands to Collapse.
func (c arenaCase) build() ([]*Buffer[float64], *Buffer[float64]) {
	bufs := make([]*Buffer[float64], len(c.data))
	for i, d := range c.data {
		b := New[float64](len(d))
		copy(b.Data, d)
		b.Fill = len(d)
		b.Weight = c.weights[i]
		b.State = Full
		b.unsorted = true
		bufs[i] = b
	}
	return bufs, bufs[c.dst]
}

// arenaCases draws the seeded collapse sequence of one worker. Round r
// cycles through equal weights, mixed weights, and a NaN input that forces
// the comparison fallback.
//
// The sort baseline orders NaN first (cmp.Compare), but the tournament
// compares with <, which is false both ways for NaN, so a NaN head wins
// only the matches in which it is the left player. The two walks therefore
// agree only when the NaNs lead buffer 0 and the run count is a power of
// two, which puts that run on the left of every match up to the root; the
// NaN rounds are drawn that way.
func arenaCases(seed uint64, k, rounds int) []arenaCase {
	g := rng.New(seed)
	cases := make([]arenaCase, rounds)
	for r := range cases {
		nb := 2 + int(g.Uint64n(4))
		if r%3 == 2 {
			nb = 2 << g.Uint64n(2)
		}
		c := arenaCase{data: make([][]float64, nb), weights: make([]uint64, nb), dst: int(g.Uint64n(uint64(nb)))}
		w0 := uint64(1) << g.Uint64n(3)
		for i := range c.data {
			d := make([]float64, k)
			for j := range d {
				d[j] = float64(int(g.Uint64n(2000))-1000) / 8 // negatives and duplicates
			}
			c.data[i] = d
			c.weights[i] = w0
			if r%3 == 1 {
				c.weights[i] = 1 + g.Uint64n(8)
			}
		}
		if r%3 == 2 {
			for n := 1 + int(g.Uint64n(3)); n > 0; n-- {
				c.data[0][g.Uint64n(uint64(k))] = math.NaN()
			}
		}
		cases[r] = c
	}
	return cases
}

// TestSharedArenaConcurrentCollapse runs collapses on several goroutines at
// once, each over its own buffer sets and with its own buffer capacity, so
// they borrow, regrow and return the shared radix arenas concurrently.
// Every output must equal the serial sort-baseline collapse of the same
// input byte for byte. Run it under -race to check the free list.
func TestSharedArenaConcurrentCollapse(t *testing.T) {
	const (
		workers = 6
		rounds  = 30
	)
	type result struct {
		data   []float64
		weight uint64
	}
	cases := make([][]arenaCase, workers)
	want := make([][]result, workers)
	for w := range cases {
		k := 64 + 96*w
		cases[w] = arenaCases(uint64(w+1), k, rounds)
		base := NewCollapser[float64](k)
		base.sortBaseline = true
		for _, c := range cases[w] {
			bufs, dst := c.build()
			base.Collapse(bufs, dst)
			want[w] = append(want[w], result{append([]float64(nil), dst.Data...), dst.Weight})
		}
	}

	var wg sync.WaitGroup
	for w := range cases {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			col := NewCollapser[float64](len(cases[w][0].data[0]))
			for r, c := range cases[w] {
				bufs, dst := c.build()
				col.Collapse(bufs, dst)
				exp := want[w][r]
				if dst.Weight != exp.weight || dst.Fill != len(exp.data) || dst.State != Full {
					t.Errorf("worker %d round %d: weight %d fill %d state %v, want weight %d fill %d full",
						w, r, dst.Weight, dst.Fill, dst.State, exp.weight, len(exp.data))
					return
				}
				for i, v := range dst.Data {
					if math.Float64bits(v) != math.Float64bits(exp.data[i]) {
						t.Errorf("worker %d round %d: element %d = %v, want %v", w, r, i, v, exp.data[i])
						return
					}
				}
				for i, b := range bufs {
					if b != dst && b.State != Empty {
						t.Errorf("worker %d round %d: input %d not cleared", w, r, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
