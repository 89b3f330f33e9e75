// Package perf is the repository's performance harness (experiment E-PERF):
// it measures the hot paths end to end — bulk and scalar unknown-N ingest,
// known-N, the reservoir and extreme baselines, the sharded concurrent
// sketch, the cluster coordinator's shipment ingest, the query-serving
// path (cold view rebuild, cached single-φ and CDF lookups, queries racing
// ingest), the multi-tenant keyed store (hot-key slab ingest, Zipf
// group-by churn, cached per-key queries), and the time-windowed keyed
// store (in-epoch ingest, epoch rotation, cached windowed queries) — and
// emits a machine-readable report (BENCH_<PR>.json) that CI
// compares against a checked-in baseline to catch throughput regressions.
//
// Ingest rows report ns per stream element; query rows report ns per query
// (their Elems field is the number of queries one op performs).
//
// Unlike the testing.B micro-benchmarks in bench_test.go, this harness is
// self-timed (min over a few repetitions) so it can run as a plain binary
// in CI, and it carries a calibration row — a fixed pure-Go workload — so a
// baseline recorded on one machine can be compared on another by scaling
// with the calibration ratio.
package perf

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	quantile "repro"
	"repro/cluster"
	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/keyed"
	"repro/internal/stream"
	"repro/internal/window"
)

// Row families: rows in one family share a stream size, and -bench-n can
// size each family independently (family=N pairs). Comparing a row against
// a baseline recorded at a different N is rejected per row, by name.
const (
	FamilyIngest  = "ingest"  // single-sketch ingest rows
	FamilyQuery   = "query"   // query-serving rows
	FamilyCluster = "cluster" // coordinator shipment path
	FamilyEngine  = "engine"  // per-engine ingest + cached-query rows
	FamilyBinary  = "binary"  // framed-slab wire ingest rows
	FamilyKeyed   = "keyed"   // multi-tenant keyed store rows
	FamilyWindow  = "window"  // time-windowed keyed store rows
)

// Families lists the known row families in display order.
func Families() []string {
	return []string{FamilyIngest, FamilyQuery, FamilyCluster, FamilyEngine, FamilyBinary, FamilyKeyed, FamilyWindow}
}

// Row is one measured ingest path.
type Row struct {
	// Name identifies the path; baseline comparison matches rows by name.
	Name string `json:"name"`
	// N is the backing stream size this row ran at; families may differ
	// when the run sized them independently. 0 (legacy baselines) means
	// the report-level N.
	N int `json:"n,omitempty"`
	// Elems is how many elements one op ingests.
	Elems int `json:"elems"`
	// NsPerElem is the best-of-reps wall time per element.
	NsPerElem float64 `json:"ns_per_elem"`
	// ElemsPerSec is the corresponding throughput.
	ElemsPerSec float64 `json:"elems_per_sec"`
	// AllocsPerOp is the heap-allocation count of the best rep (the timed
	// ingest only; per-rep setup is excluded).
	AllocsPerOp uint64 `json:"allocs_per_op"`
}

// Report is the full E-PERF result, serialized as BENCH_<PR>.json.
type Report struct {
	// Schema names the JSON layout so future changes can be versioned.
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// N is the stream size each single-sketch row ingests per op.
	N    int `json:"n"`
	Reps int `json:"reps"`
	// CalibrationNsPerElem is the fixed splitmix64 workload's per-element
	// cost on this machine; comparisons across machines divide it out.
	CalibrationNsPerElem float64 `json:"calibration_ns_per_elem"`
	Rows                 []Row   `json:"rows"`
}

// Config sizes a harness run.
type Config struct {
	// N is the per-op stream size (default 1<<20); FamilyN overrides it
	// per row family.
	N int
	// FamilyN sizes one family's stream independently of N, keyed by the
	// Family* constants. Unknown keys are an error naming the family.
	FamilyN map[string]int
	// Reps is how many times each op runs; the fastest rep is reported
	// (default 5, plus one untimed warmup — enough to damp scheduler noise
	// on the concurrent rows below the CI gate's tolerance).
	Reps int
	// Engines selects the backends measured by the engine-ingest-* and
	// engine-query-* rows (default: every registered engine).
	Engines []string
}

// DefaultConfig returns the baseline-generation configuration. The binary
// wire rows run at a larger N than the in-memory rows: the slab path's
// fixed costs (frame headers, CRC, decoder state) amortize across frames,
// and the paper-facing claim — wire-speed ingest under 20 ns/elem — is a
// steady-state number, not a cold-start one.
func DefaultConfig() Config {
	return Config{N: 1 << 20, Reps: 5, FamilyN: map[string]int{FamilyBinary: 1 << 23, FamilyKeyed: 1 << 23}}
}

const schemaName = "qbench-perf/v2"

// calSink keeps the calibration loop's result live.
var calSink uint64

// calibrate times the fixed reference workload: n splitmix64 steps.
func calibrate(n, reps int) float64 {
	best := 0.0
	for r := 0; r < reps+1; r++ {
		x := uint64(0x9e3779b97f4a7c15)
		var acc uint64
		start := time.Now()
		for i := 0; i < n; i++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z ^= z >> 30
			z *= 0xbf58476d1ce4e5b9
			z ^= z >> 27
			z *= 0x94d049bb133111eb
			z ^= z >> 31
			acc += z
		}
		el := float64(time.Since(start).Nanoseconds()) / float64(n)
		calSink += acc
		if r == 0 {
			continue // warmup
		}
		if best == 0 || el < best {
			best = el
		}
	}
	return best
}

// measure runs setup+op reps+1 times (first rep is an untimed warmup) and
// returns the fastest op's wall time and its heap-allocation count. Only op
// is timed; setup rebuilds state between reps.
func measure(reps int, setup, op func()) (ns int64, allocs uint64) {
	var ms0, ms1 runtime.MemStats
	for r := 0; r < reps+1; r++ {
		setup()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		op()
		el := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&ms1)
		if r == 0 {
			continue
		}
		if ns == 0 || el < ns {
			ns = el
			allocs = ms1.Mallocs - ms0.Mallocs
		}
	}
	return ns, allocs
}

// Run executes the full E-PERF suite.
func Run(cfg Config) (Report, error) {
	if cfg.N <= 0 {
		cfg.N = 1 << 20
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 3
	}
	known := map[string]bool{}
	for _, f := range Families() {
		known[f] = true
	}
	for f, n := range cfg.FamilyN {
		if !known[f] {
			return Report{}, fmt.Errorf("perf: unknown row family %q in FamilyN (known: %v)", f, Families())
		}
		if n <= 0 {
			return Report{}, fmt.Errorf("perf: row family %q sized to %d elements; need a positive stream size", f, n)
		}
	}
	if len(cfg.Engines) == 0 {
		cfg.Engines = engine.Names()
	}
	for i, name := range cfg.Engines {
		norm, err := engine.Normalize(name)
		if err != nil {
			return Report{}, fmt.Errorf("perf: %w", err)
		}
		cfg.Engines[i] = norm
	}
	// nFor resolves a family's stream size: its override, else the run-wide N.
	nFor := func(family string) int {
		if n := cfg.FamilyN[family]; n > 0 {
			return n
		}
		return cfg.N
	}
	const eps, delta = 0.01, 1e-3
	data := stream.Collect(stream.Uniform(uint64(nFor(FamilyIngest)), 0xbe9c4))
	queryData := data
	if nFor(FamilyQuery) != nFor(FamilyIngest) {
		queryData = stream.Collect(stream.Uniform(uint64(nFor(FamilyQuery)), 0xbe9c4))
	}

	rep := Report{
		Schema:    schemaName,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		N:         cfg.N,
		Reps:      cfg.Reps,
	}
	rep.CalibrationNsPerElem = calibrate(cfg.N, cfg.Reps)

	addRow := func(family, name string, elems int, setup, op func()) {
		ns, allocs := measure(cfg.Reps, setup, op)
		perElem := float64(ns) / float64(elems)
		rep.Rows = append(rep.Rows, Row{
			Name: name, N: nFor(family), Elems: elems,
			NsPerElem:   perElem,
			ElemsPerSec: 1e9 / perElem,
			AllocsPerOp: allocs,
		})
	}

	// Unknown-N: the same sketch via the bulk and the scalar path. Reset
	// reinstalls the seed, so every rep performs identical work.
	bulk, err := quantile.New[float64](eps, delta, quantile.WithSeed(1))
	if err != nil {
		return rep, err
	}
	addRow(FamilyIngest, "unknown-n-bulk", len(data), bulk.Reset, func() { bulk.AddAll(data) })

	scalar, err := quantile.New[float64](eps, delta, quantile.WithSeed(1))
	if err != nil {
		return rep, err
	}
	addRow(FamilyIngest, "unknown-n-scalar", len(data), scalar.Reset, func() {
		for _, v := range data {
			scalar.Add(v)
		}
	})

	// Known-N commits to its sampling rate up front; rebuilt per rep (the
	// root API exposes no Reset), with construction outside the timing.
	var kn *quantile.KnownN[float64]
	addRow(FamilyIngest, "known-n", len(data), func() {
		kn, err = quantile.NewKnownN[float64](uint64(len(data)), eps, delta, quantile.WithSeed(1))
	}, func() { kn.AddAll(data) })
	if err != nil {
		return rep, err
	}

	var rq *quantile.Reservoir[float64]
	addRow(FamilyIngest, "reservoir", len(data), func() {
		rq, err = quantile.NewReservoir[float64](eps, delta, quantile.WithSeed(1))
	}, func() {
		for _, v := range data {
			rq.Add(v)
		}
	})
	if err != nil {
		return rep, err
	}

	var ex *quantile.Extreme[float64]
	addRow(FamilyIngest, "extreme", len(data), func() {
		ex, err = quantile.NewExtreme[float64](0.01, 0.002, delta, uint64(len(data)), quantile.WithSeed(1))
	}, func() {
		for _, v := range data {
			ex.Add(v)
		}
	})
	if err != nil {
		return rep, err
	}

	var con *quantile.Concurrent[float64]
	addRow(FamilyIngest, "concurrent", len(data), func() {
		con, err = quantile.NewConcurrent[float64](eps, delta, 8, quantile.WithSeed(1))
	}, func() { con.AddAll(data) })
	if err != nil {
		return rep, err
	}

	// Query rows: the zero-rebuild serving path. One sharded sketch holds
	// the full stream; queries are answered from its cached immutable view.
	qc, err := quantile.NewConcurrent[float64](eps, delta, 8, quantile.WithSeed(2))
	if err != nil {
		return rep, err
	}
	qc.AddAll(queryData)

	// query-rebuild is the pre-view cost model — every query preceded by a
	// mutation, so each one pays the full coordinator merge the old code
	// paid unconditionally. The cached rows below divide this out.
	const rebuildQueries = 64
	addRow(FamilyQuery, "query-rebuild", rebuildQueries, func() {}, func() {
		for i := 0; i < rebuildQueries; i++ {
			qc.Add(queryData[i])
			if _, qerr := qc.Quantile(0.5); qerr != nil {
				err = qerr
				return
			}
		}
	})
	if err != nil {
		return rep, err
	}

	// Cached single-φ: steady-state reads against an unchanged sketch. The
	// φ sweep defeats a branch-predicted constant binary search.
	const cachedQueries = 1 << 18
	addRow(FamilyQuery, "query-cached-phi", cachedQueries, func() { _, err = qc.Quantile(0.5) }, func() {
		for i := 0; i < cachedQueries; i++ {
			phi := float64(i&1023+1) / 1024
			if _, qerr := qc.Quantile(phi); qerr != nil {
				err = qerr
				return
			}
		}
	})
	if err != nil {
		return rep, err
	}

	addRow(FamilyQuery, "query-cached-cdf", cachedQueries, func() { _, err = qc.CDF(0.5) }, func() {
		for i := 0; i < cachedQueries; i++ {
			if _, qerr := qc.CDF(float64(i&1023) / 1024); qerr != nil {
				err = qerr
				return
			}
		}
	})
	if err != nil {
		return rep, err
	}

	// Queries racing ingest: 2 writers stream bulk chunks while 8 readers
	// query — the cache invalidates constantly, so this measures the
	// singleflight rebuild path under contention.
	const ingestQueries = 64
	var quc *quantile.Concurrent[float64]
	addRow(FamilyQuery, "query-under-ingest", ingestQueries, func() {
		quc, err = quantile.NewConcurrent[float64](eps, delta, 8, quantile.WithSeed(3))
		if err == nil {
			quc.AddAll(queryData)
		}
	}, func() {
		var stop atomic.Bool
		var wwg, rwg sync.WaitGroup
		chunk := 4096
		if chunk > len(queryData) {
			chunk = len(queryData)
		}
		span := len(queryData) - chunk + 1 // valid start offsets
		for w := 0; w < 2; w++ {
			wwg.Add(1)
			go func(w int) {
				defer wwg.Done()
				for off := (w * chunk) % span; !stop.Load(); off = (off + chunk) % span {
					quc.AddAll(queryData[off : off+chunk])
				}
			}(w)
		}
		var qerr atomic.Value
		for r := 0; r < 8; r++ {
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				for i := 0; i < ingestQueries/8; i++ {
					if _, e := quc.Quantile(0.5); e != nil {
						qerr.Store(e)
						return
					}
				}
			}()
		}
		rwg.Wait()
		stop.Store(true)
		wwg.Wait()
		if e, ok := qerr.Load().(error); ok {
			err = e
		}
	})
	if err != nil {
		return rep, err
	}

	// Cluster ingest: the coordinator's full /v1/ship path (validate,
	// dedup, decode, merge) over pre-built worker epochs.
	envs, total, err := buildEnvelopes(eps, delta, nFor(FamilyCluster))
	if err != nil {
		return rep, err
	}
	var coord *cluster.Coordinator
	addRow(FamilyCluster, "cluster-ingest", int(total), func() {
		coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{Eps: eps, Delta: delta, Seed: 7})
	}, func() {
		for _, env := range envs {
			if status, res := coord.Ingest(env); res.Status != cluster.StatusAccepted {
				err = fmt.Errorf("perf: shipment rejected (%d): %s", status, res.Error)
				return
			}
		}
	})
	if err != nil {
		return rep, err
	}

	// Binary wire rows: the framed float64 slab protocol end to end,
	// minus HTTP itself. The slab is encoded once (64Ki-value frames, the
	// load driver's shape); ingest-binary-decode isolates the frame
	// decoder, ingest-binary-bulk is decode + AddAll — the work one
	// POST /v1/ingest performs per frame.
	binData := data
	if nFor(FamilyBinary) != nFor(FamilyIngest) {
		binData = stream.Collect(stream.Uniform(uint64(nFor(FamilyBinary)), 0xbe9c4))
	}
	var slab []byte
	for off := 0; off < len(binData); off += 1 << 16 {
		end := off + 1<<16
		if end > len(binData) {
			end = len(binData)
		}
		slab = codec.AppendIngestFrame(slab, binData[off:end])
	}
	var binDec codec.IngestDecoder
	binRd := bytes.NewReader(slab)
	var binSink float64
	addRow(FamilyBinary, "ingest-binary-decode", len(binData), func() {
		binRd.Reset(slab)
		binDec.Reset(binRd)
	}, func() {
		for {
			vals, derr := binDec.Next()
			if derr != nil {
				if derr != io.EOF {
					err = derr
				}
				return
			}
			binSink += vals[0]
		}
	})
	if err != nil {
		return rep, err
	}

	bsk, err := quantile.New[float64](eps, delta, quantile.WithSeed(1))
	if err != nil {
		return rep, err
	}
	addRow(FamilyBinary, "ingest-binary-bulk", len(binData), func() {
		bsk.Reset()
		binRd.Reset(slab)
		binDec.Reset(binRd)
	}, func() {
		for {
			vals, derr := binDec.Next()
			if derr != nil {
				if derr != io.EOF {
					err = derr
				}
				return
			}
			bsk.AddAll(vals)
		}
	})
	if err != nil {
		return rep, err
	}

	// Keyed wire rows: the multi-tenant store's slab path end to end.
	// keyed-ingest-hot replays the binary row's exact shape (64Ki-value
	// frames) addressed to one resident key — decode + zero-alloc
	// AddAllBytes, the per-frame work of POST /v1/ingest/keyed for a hot
	// tenant. Its gate vs ingest-binary-bulk bounds the keyed surcharge
	// (hash + shard lock + LRU touch per frame).
	keyedData := binData
	if nFor(FamilyKeyed) != nFor(FamilyBinary) {
		keyedData = stream.Collect(stream.Uniform(uint64(nFor(FamilyKeyed)), 0xbe9c4))
	}
	kcfg, err := keyed.Solve(eps, delta)
	if err != nil {
		return rep, err
	}
	kcfg.Seed = 1
	var keyedSlab []byte
	for off := 0; off < len(keyedData); off += 1 << 16 {
		end := off + 1<<16
		if end > len(keyedData) {
			end = len(keyedData)
		}
		keyedSlab = codec.AppendKeyedIngestFrame(keyedSlab, []byte("hot-tenant"), keyedData[off:end])
	}
	khot, err := keyed.New[string, float64](keyed.Config{Sketch: kcfg, Shards: keyed.DefaultShards})
	if err != nil {
		return rep, err
	}
	if kerr := khot.AddAll("hot-tenant", keyedData[:1]); kerr != nil {
		return rep, kerr
	}
	var kDec codec.KeyedIngestDecoder
	kRd := bytes.NewReader(keyedSlab)
	addRow(FamilyKeyed, "keyed-ingest-hot", len(keyedData), func() {
		khot.ResetKey("hot-tenant")
		kRd.Reset(keyedSlab)
		kDec.Reset(kRd)
	}, func() {
		for {
			key, vals, derr := kDec.Next()
			if derr != nil {
				if derr != io.EOF {
					err = derr
				}
				return
			}
			if aerr := keyed.AddAllBytes(khot, key, vals); aerr != nil {
				err = aerr
				return
			}
		}
	})
	if err != nil {
		return rep, err
	}

	// keyed-ingest-zipf is the group-by regime: 1024 tenants, 8Ki-value
	// frames, keys drawn Zipf(s=1.3) — a cold store per rep, so the row
	// prices entry creation and cold-key dispatch alongside the hot path.
	const zipfKeys = 1024
	const zipfFrame = 8192
	zipfRanks := stream.Zipf(uint64((len(keyedData)+zipfFrame-1)/zipfFrame), 7, 1.3, zipfKeys-1)
	var zipfSlab []byte
	for off := 0; off < len(keyedData); off += zipfFrame {
		end := off + zipfFrame
		if end > len(keyedData) {
			end = len(keyedData)
		}
		rank, _ := zipfRanks.Next()
		zipfSlab = codec.AppendKeyedIngestFrame(zipfSlab, []byte(fmt.Sprintf("key-%04d", int(rank))), keyedData[off:end])
	}
	var kz *keyed.Store[string, float64]
	zRd := bytes.NewReader(zipfSlab)
	addRow(FamilyKeyed, "keyed-ingest-zipf", len(keyedData), func() {
		kz, err = keyed.New[string, float64](keyed.Config{Sketch: kcfg, Shards: keyed.DefaultShards})
		zRd.Reset(zipfSlab)
		kDec.Reset(zRd)
	}, func() {
		for {
			key, vals, derr := kDec.Next()
			if derr != nil {
				if derr != io.EOF {
					err = derr
				}
				return
			}
			if aerr := keyed.AddAllBytes(kz, key, vals); aerr != nil {
				err = aerr
				return
			}
		}
	})
	if err != nil {
		return rep, err
	}

	// keyed-query-cached: steady-state per-key reads against an unchanged
	// tenant — the version-keyed cached view, alloc-gated like the flat
	// query path it mirrors.
	const keyedQueries = 1 << 18
	addRow(FamilyKeyed, "keyed-query-cached", keyedQueries, func() {
		_, err = khot.Quantile("hot-tenant", 0.5)
	}, func() {
		for i := 0; i < keyedQueries; i++ {
			phi := float64(i&1023+1) / 1024
			if _, qerr := khot.Quantile("hot-tenant", phi); qerr != nil {
				err = qerr
				return
			}
		}
	})
	if err != nil {
		return rep, err
	}

	// Windowed rows: the epoch-ring keyed store. window-ingest replays the
	// hot-tenant slab shape into a store whose virtual clock is frozen
	// mid-epoch — the per-element cost of feeding both the all-time sketch
	// and the current epoch's sub-sketch, rotation excluded, alloc-gated at
	// zero. window-rotate prices the rotation step itself (advance + retire
	// of one slot per epoch boundary); its Elems are rotations, so NsPerElem
	// reads as ns/rotation. window-query-cached is the steady-state windowed
	// read against an unchanged ring: the version-keyed merged view must
	// stay cached and alloc-free.
	winData := stream.Collect(stream.Uniform(uint64(nFor(FamilyWindow)), 0xbe9c4))
	var winSlab []byte
	for off := 0; off < len(winData); off += 1 << 16 {
		end := off + 1<<16
		if end > len(winData) {
			end = len(winData)
		}
		winSlab = codec.AppendKeyedIngestFrame(winSlab, []byte("hot-tenant"), winData[off:end])
	}
	winNow := time.Unix(1_700_000_000, 0)
	kwin, err := keyed.New[string, float64](keyed.Config{
		Sketch:       kcfg,
		Shards:       keyed.DefaultShards,
		WindowWidth:  time.Hour, // frozen clock: the op never crosses an epoch
		WindowEpochs: 8,
		Now:          func() time.Time { return winNow },
	})
	if err != nil {
		return rep, err
	}
	if kerr := kwin.AddAll("hot-tenant", winData[:1]); kerr != nil {
		return rep, kerr
	}
	wRd := bytes.NewReader(winSlab)
	addRow(FamilyWindow, "window-ingest", len(winData), func() {
		kwin.ResetKey("hot-tenant")
		wRd.Reset(winSlab)
		kDec.Reset(wRd)
	}, func() {
		for {
			key, vals, derr := kDec.Next()
			if derr != nil {
				if derr != io.EOF {
					err = derr
				}
				return
			}
			if aerr := keyed.AddAllBytes(kwin, key, vals); aerr != nil {
				err = aerr
				return
			}
		}
	})
	if err != nil {
		return rep, err
	}

	// window-rotate drives a bare ring one epoch per step: each Add lands
	// in a fresh epoch, so the timed loop pays advance + slot retirement
	// every iteration. The epoch counter runs on across reps — rotation
	// cost is position-independent.
	ring, err := window.New[float64](window.Config{Sketch: kcfg, Width: time.Second, Epochs: 8})
	if err != nil {
		return rep, err
	}
	const rotations = 4096
	rotBase := time.Unix(1_700_000_000, 0).UnixNano()
	var rotEpoch int64
	addRow(FamilyWindow, "window-rotate", rotations, func() {}, func() {
		for i := 0; i < rotations; i++ {
			ring.Add(rotBase+rotEpoch*int64(time.Second), float64(i))
			rotEpoch++
		}
	})

	// window-query-cached: repeated windowed reads over the full span of an
	// unchanged key. Only the first query per version rebuilds the merged
	// view; the rest must hit the cached pointer.
	qn := 1 << 16
	if qn > len(winData) {
		qn = len(winData)
	}
	if kerr := kwin.AddAll("win-tenant", winData[:qn]); kerr != nil {
		return rep, kerr
	}
	winSpan := kwin.WindowSpan()
	const winQueries = 1 << 18
	addRow(FamilyWindow, "window-query-cached", winQueries, func() {
		_, err = kwin.WindowQuantile("win-tenant", winSpan, 0.5)
	}, func() {
		for i := 0; i < winQueries; i++ {
			phi := float64(i&1023+1) / 1024
			if _, qerr := kwin.WindowQuantile("win-tenant", winSpan, phi); qerr != nil {
				err = qerr
				return
			}
		}
	})
	if err != nil {
		return rep, err
	}

	// Per-engine rows: the same unknown-N ingest and cached-query workload
	// through each engine's ingest surface — the one httpapi and cluster
	// workers serve (for mrl99 the sharded Concurrent sketch, so these two
	// rows repeat the concurrent and query-cached-phi rows) — so
	// EXPERIMENTS.md can table MRL99-vs-KLL-vs-GK speed next to the
	// conformance grid's accuracy.
	engData := data
	if nFor(FamilyEngine) != nFor(FamilyIngest) {
		engData = stream.Collect(stream.Uniform(uint64(nFor(FamilyEngine)), 0xbe9c4))
	}
	for _, name := range cfg.Engines {
		var e engine.Ingest
		addRow(FamilyEngine, "engine-ingest-"+name, len(engData), func() {
			e, err = engine.NewIngest(name, eps, delta, 0, 1)
		}, func() { e.AddAll(engData) })
		if err != nil {
			return rep, err
		}

		var q engine.Ingest
		const engQueries = 1 << 16
		addRow(FamilyEngine, "engine-query-"+name, engQueries, func() {
			if q == nil {
				if q, err = engine.NewIngest(name, eps, delta, 0, 2); err != nil {
					return
				}
				q.AddAll(engData)
			}
			_, err = q.Quantile(0.5) // warm the view cache outside the timing
		}, func() {
			for i := 0; i < engQueries; i++ {
				phi := float64(i&1023+1) / 1024
				if _, qerr := q.Quantile(phi); qerr != nil {
					err = qerr
					return
				}
			}
		})
		if err != nil {
			return rep, err
		}
	}

	return rep, nil
}

// buildEnvelopes cuts the benchmark stream into 8 worker epochs, each a
// serialized Section 6 shipment ready for Coordinator.Ingest.
func buildEnvelopes(eps, delta float64, n int) ([]cluster.Envelope, uint64, error) {
	const epochs = 8
	sk, err := quantile.NewConcurrent[float64](eps, delta, 4, quantile.WithSeed(99))
	if err != nil {
		return nil, 0, err
	}
	data := stream.Collect(stream.Uniform(uint64(n), 0x5ca1e))
	chunk := len(data) / epochs
	var envs []cluster.Envelope
	var total uint64
	for e := 0; e < epochs; e++ {
		sk.AddAll(data[e*chunk : (e+1)*chunk])
		blob, count, err := sk.ShipAndReset(quantile.Float64Codec())
		if err != nil {
			return nil, 0, err
		}
		total += count
		envs = append(envs, cluster.Envelope{
			Worker: "bench-worker",
			Epoch:  uint64(e + 1),
			Eps:    eps,
			Delta:  delta,
			Count:  count,
			Blob:   blob,
		})
	}
	return envs, total, nil
}

// allocGatedPrefixes names the row families whose allocs/op the gate also
// enforces: the pooled single-sketch and wire-ingest hot paths, where a
// reintroduced per-block allocation is a real regression. The concurrent
// and query rows are excluded — their counts ride on goroutine scheduling.
var allocGatedPrefixes = []string{"unknown-n", "known-n", "ingest-binary", "engine-ingest", "keyed-ingest-hot", "keyed-query-cached", "window-ingest", "window-query-cached"}

func allocGated(name string) bool {
	for _, p := range allocGatedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Compare checks cur against a baseline: a row regresses when its ns/elem
// exceeds the baseline's by more than tolerance (a fraction, e.g. 0.25)
// after scaling the baseline by the machines' calibration ratio — and, on
// the alloc-gated hot-path rows (see allocGatedPrefixes), when its
// allocs/op exceeds the baseline's by more than half plus a small constant.
// It returns one message per violation; empty means the gate passes.
//
// The runs must use matching stream sizes: per-element costs carry fixed
// overheads (most visibly the cluster rows' per-envelope decode) that are
// amortized differently at different N. Size is enforced per row — a row
// whose N differs from the baseline's is rejected by name, so a run that
// resized only one family learns exactly which rows it broke. Rows recorded
// before per-row sizes (n absent) fall back to their report-level N.
func Compare(cur, base Report, tolerance float64) []string {
	scale := 1.0
	if base.CalibrationNsPerElem > 0 && cur.CalibrationNsPerElem > 0 {
		scale = cur.CalibrationNsPerElem / base.CalibrationNsPerElem
	}
	rowN := func(r Row, rep Report) int {
		if r.N > 0 {
			return r.N
		}
		return rep.N
	}
	baseRows := make(map[string]Row, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[r.Name] = r
	}
	var violations []string
	for _, r := range cur.Rows {
		b, ok := baseRows[r.Name]
		if !ok {
			continue // new row: no baseline yet
		}
		delete(baseRows, r.Name)
		if cn, bn := rowN(r, cur), rowN(b, base); cn != bn {
			violations = append(violations, fmt.Sprintf(
				"%s: stream size mismatch: this run used n=%d but the baseline row was recorded at n=%d; rerun with a matching -bench-n for its family",
				r.Name, cn, bn))
			continue
		}
		allowed := b.NsPerElem * scale * (1 + tolerance)
		if r.NsPerElem > allowed {
			violations = append(violations, fmt.Sprintf(
				"%s: %.1f ns/elem exceeds baseline %.1f ns/elem (allowed %.1f after %.2fx calibration scaling, tolerance %d%%)",
				r.Name, r.NsPerElem, b.NsPerElem, allowed, scale, int(tolerance*100)))
		}
		if allocGated(r.Name) {
			// Allocation counts are machine-independent, so the slack is
			// structural, not calibrated: half again plus a small constant
			// for runtime noise (GC assists, map growth) around a ~0 base.
			allowedAllocs := b.AllocsPerOp + b.AllocsPerOp/2 + 16
			if r.AllocsPerOp > allowedAllocs {
				violations = append(violations, fmt.Sprintf(
					"%s: %d allocs/op exceeds baseline %d (allowed %d)",
					r.Name, r.AllocsPerOp, b.AllocsPerOp, allowedAllocs))
			}
		}
	}
	missing := make([]string, 0, len(baseRows))
	for name := range baseRows {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	for _, name := range missing {
		violations = append(violations, fmt.Sprintf("%s: row present in baseline but missing from this run", name))
	}
	return violations
}

// Render produces the harness's human-readable table.
func (r Report) Render() experiments.Table {
	t := experiments.Table{
		Title: fmt.Sprintf("E-PERF: ingest + query throughput (n=%d, best of %d; calibration %.2f ns/elem)",
			r.N, r.Reps, r.CalibrationNsPerElem),
		Columns: []string{"path", "n", "elems/op", "ns/elem", "elems/sec", "allocs/op"},
	}
	for _, row := range r.Rows {
		n := row.N
		if n == 0 {
			n = r.N
		}
		t.Rows = append(t.Rows, []string{
			row.Name, fmt.Sprint(n), fmt.Sprint(row.Elems),
			fmt.Sprintf("%.1f", row.NsPerElem),
			fmt.Sprintf("%.0f", row.ElemsPerSec),
			fmt.Sprint(row.AllocsPerOp),
		})
	}
	return t
}
