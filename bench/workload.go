package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/rng"
)

// Shared configuration of every workload. The root guarantee is ε = 0.01;
// tree nodes run the per-level share agg.PerLevelEps(0.01, 3).
const (
	rootEps      = 0.01
	delta        = 1e-4
	treeHeight   = 3
	poolFrames   = 64
	keysMax      = 512
	windowSpan   = 10 * time.Second
	windowEpochs = 10
	shipInterval = 500 * time.Millisecond
)

// phis is the quantile list every query asks for.
var phis = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}

const phiParam = "0.01,0.1,0.25,0.5,0.75,0.9,0.99"

type topology int

const (
	standalone topology = iota // one quantiled, flat sketch only
	keyedStore                 // one quantiled with -keys-max/-window
	tree                       // worker → aggregator → coordinator
)

// workload is one seeded traffic mix. Open loops send ingest at ingestRate
// and queries at qps for the whole run. Closed loops ingest as fast as the
// server acknowledges for the first half of the measured time; in the
// second half one connection ingests open-loop at ingestRate while the
// other sends queries at qps.
type workload struct {
	name       string
	topo       topology
	frameElems int
	closed     bool
	ingestRate float64       // open-loop elements per second
	keyedShare float64       // share of ingest frames sent as keyed frames
	keys       int           // key space of keyed frames
	zipfS      float64       // key skew; 0 draws keys uniformly
	queryKeys  int           // keyed queries go to keys 0..queryKeys-1, the hottest
	qps        float64       // queries per second
	window     time.Duration // window= of windowed queries
	// windowShare of the keyed queries are windowed. A percentile of an
	// even mix of two unlike costs falls between them and jumps run to
	// run, so a workload whose queries are all keyed leans to one kind.
	windowShare float64
}

// The workloads, and why each was chosen, are described in README.md and
// BENCHMARK.json.
var workloads = []*workload{
	{name: "slab-ingest", topo: standalone, frameElems: 64 << 10, closed: true, ingestRate: 32e6, qps: 100},
	{name: "keyed-window", topo: keyedStore, frameElems: 4 << 10, closed: true, ingestRate: 4e6,
		keyedShare: 1, keys: 2048, zipfS: 1.1, queryKeys: 4, qps: 100, window: windowSpan, windowShare: 0.75},
	{name: "query-under-ingest", topo: keyedStore, frameElems: 16 << 10, ingestRate: 8e6,
		keyedShare: 0.25, keys: 8, queryKeys: 8, qps: 100, window: 5 * time.Second, windowShare: 0.5},
	{name: "tree-3level", topo: tree, frameElems: 16 << 10, ingestRate: 8e6, qps: 100},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// nodeEps is the ε every node of the workload's topology runs.
func (w *workload) nodeEps() float64 {
	if w.topo == tree {
		return rootEps / treeHeight // agg.PerLevelEps(rootEps, treeHeight)
	}
	return rootEps
}

func keyName(i int) string { return fmt.Sprintf("k%04d", i) }

func nameHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// qslbHeader is the QSLB frame header length (magic, version, count).
const qslbHeader = 9

// pool holds the seeded frames a workload sends, encoded before any timer
// starts, so the generator only writes bytes. A keyed frame is the pool
// frame's payload behind a per-key header; its CRC-32C is spliced from the
// header's CRC and the payload's precomputed contribution, so any key can be
// sent without touching the payload.
type pool struct {
	elems  int
	flat   [][]byte    // QSLB frames, elements in send order
	sorted [][]float64 // each frame's elements, ascending (the oracle's copy)
	payCRC []uint32    // CRC register contribution of each payload from a zero state
	shift  [32]uint32  // columns of the CRC register advance over one payload
}

func newPool(w *workload, seed uint64) *pool {
	r := rng.New(seed ^ nameHash(w.name))
	p := &pool{elems: w.frameElems}
	vals := make([]float64, w.frameElems)
	for f := 0; f < poolFrames; f++ {
		// Log-normal latency-like values; each frame gets its own location
		// and scale so frames overlap without being identical.
		mu, sigma := 3*r.Float64(), 0.25+r.Float64()
		for i := range vals {
			vals[i] = math.Exp(mu + sigma*r.NormFloat64())
		}
		frame := codec.AppendIngestFrame(nil, vals)
		p.flat = append(p.flat, frame)
		p.sorted = append(p.sorted, slices.Sorted(slices.Values(vals)))
		p.payCRC = append(p.payCRC, ^crc32.Update(^uint32(0), castagnoli, p.payload(f)))
	}
	zeros := make([]byte, 8*w.frameElems)
	for i := range p.shift {
		p.shift[i] = ^crc32.Update(^(uint32(1) << i), castagnoli, zeros)
	}
	return p
}

func (p *pool) payload(f int) []byte { return p.flat[f][qslbHeader : len(p.flat[f])-4] }

// keyedHead appends the QKSB header and key of frame f onto dst and returns
// it with the frame's CRC trailer; the frame is head + payload(f) + tail.
func (p *pool) keyedHead(dst, key []byte, f int) (head []byte, tail [4]byte) {
	head = append(dst[:0], 'Q', 'K', 'S', 'B', codec.KeyedIngestVersion)
	head = binary.LittleEndian.AppendUint16(head, uint16(len(key)))
	head = binary.LittleEndian.AppendUint32(head, uint32(p.elems))
	head = append(head, key...)
	// CRC(head‖payload) = ¬(A·R(head) ⊕ R(payload)), where R is the raw
	// register value and A advances a register over len(payload) bytes.
	var adv uint32
	for i, reg := 0, ^crc32.Checksum(head, castagnoli); reg != 0; i, reg = i+1, reg>>1 {
		if reg&1 != 0 {
			adv ^= p.shift[i]
		}
	}
	binary.LittleEndian.PutUint32(tail[:], ^(adv ^ p.payCRC[f]))
	return head, tail
}

// keyedFrame returns frame f as one contiguous QKSB frame for key.
func (p *pool) keyedFrame(dst, key []byte, f int) []byte {
	head, tail := p.keyedHead(dst, key, f)
	return append(append(head, p.payload(f)...), tail[:]...)
}

type kind uint8

const (
	ingestFlat kind = iota
	ingestKeyed
	queryFlat
	queryKeyed
	queryWindow
)

func (k kind) ingest() bool { return k <= ingestKeyed }

// request is one generator operation. key is an index into the workload's
// key space; for queries it is a draw that the sender maps onto a key the
// generator has already ingested.
type request struct {
	kind  kind
	frame int
	key   int
}

// source yields a connection's seeded request sequence.
type source struct {
	w    *workload
	r    *rng.RNG
	zipf []float64 // cumulative key weights when the keys are skewed
	ing  bool      // ingest stream (else query stream)
}

func newSource(w *workload, seed uint64, conn int, ingest bool) *source {
	stream := uint64(2*conn + 1)
	if !ingest {
		stream++
	}
	s := &source{w: w, r: rng.New(seed ^ nameHash(w.name) ^ stream*0x9e3779b97f4a7c15), ing: ingest}
	if w.zipfS > 0 {
		total := 0.0
		for i := 0; i < w.keys; i++ {
			total += math.Pow(float64(i+1), -w.zipfS)
			s.zipf = append(s.zipf, total)
		}
	}
	return s
}

func (s *source) key() int {
	if s.zipf == nil {
		return s.r.Intn(s.w.keys)
	}
	u := s.r.Float64() * s.zipf[len(s.zipf)-1]
	return min(sort.SearchFloat64s(s.zipf, u), s.w.keys-1)
}

func (s *source) next() request {
	if s.ing {
		req := request{kind: ingestFlat, frame: s.r.Intn(poolFrames)}
		if s.w.keyedShare > 0 && s.r.Float64() < s.w.keyedShare {
			req.kind, req.key = ingestKeyed, s.key()
		}
		return req
	}
	if s.w.keyedShare == 0 {
		return request{kind: queryFlat}
	}
	// Where flat data exists half the queries read it; of the keyed rest,
	// windowShare are windowed and the others all-time.
	u := s.r.Float64()
	if s.w.keyedShare < 1 {
		if u < 0.5 {
			return request{kind: queryFlat}
		}
		u = 2*u - 1
	}
	req := request{kind: queryKeyed, key: s.r.Intn(s.w.queryKeys)}
	if u < s.w.windowShare {
		req.kind = queryWindow
	}
	return req
}

// interval is the spacing of open-loop ingest frames.
func (w *workload) interval() time.Duration {
	return time.Duration(float64(w.frameElems) / w.ingestRate * float64(time.Second))
}
