package keyed

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/rng"
)

// TestRetainedHeapNearMemoryElements checks that a windowed store's live
// heap is its sketch buffers plus a small per-key constant — the
// #keys·(1+E)·b·k Group-By accounting — and not per-sketch collapse
// scratch. Every key gets one 4Ki-element frame in each of two epochs, so
// its all-time sketch and two window slots all collapse at least once.
// When each collapser kept its own radix arena, the heap grew about 3.9×
// the buffer footprint (roughly 260 KiB of scratch per key).
func TestRetainedHeapNearMemoryElements(t *testing.T) {
	const (
		keys       = 256
		frame      = 4096
		perKeySlop = 16 << 10 // entry, ring and sketch headers per key
	)
	sk, err := Solve(0.01, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	sk.Seed = 1
	clk := newVirtualClock()
	vals := make([]float64, frame)
	rg := rng.New(3)
	for i := range vals {
		vals[i] = rg.Float64()
	}
	names := make([]string, keys)
	for i := range names {
		names[i] = "key-" + strconv.Itoa(i)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	s := mustStore(t, Config{Sketch: sk, WindowWidth: 10 * time.Second, WindowEpochs: 10, Now: clk.Now})
	for epoch := 0; epoch < 2; epoch++ {
		for _, k := range names {
			if err := s.AddAll(k, vals); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(10 * time.Second)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	buffers := float64(s.MemoryElements() * 8)
	limit := 1.25*buffers + keys*perKeySlop
	t.Logf("heap grew %.1f MiB for %.1f MiB of buffers (%.2fx, %.1f KiB per key over the buffers)",
		grew/(1<<20), buffers/(1<<20), grew/buffers, (grew-buffers)/keys/1024)
	if grew > limit {
		t.Errorf("heap grew %.1f MiB, over the %.1f MiB limit (1.25 x %.1f MiB of buffers + %d KiB per key)",
			grew/(1<<20), limit/(1<<20), buffers/(1<<20), perKeySlop>>10)
	}
	runtime.KeepAlive(s)
}
