package main

import (
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric. The end-to-end and per-layer lists
// are the ones BENCHMARK.json declares; the smoke test holds them equal.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
	scale      hostScale
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", false, perTime},
	{"ingest_melems_per_s", "Melem/s", true, perRate},
	{"ingest_ack_p50_ms", "ms", false, perTime},
	{"ingest_ack_p99_ms", "ms", false, perTime},
	{"query_p50_ms", "ms", false, perTime},
	{"query_p99_ms", "ms", false, perTime},
	{"server_rss_mib", "MiB", false, fixed},
}

var perLayerDefs = []metricDef{
	{"transport.us_per_req", "us", false, perTime},
	{"httpapi.ingest_self_ns_per_elem", "ns/elem", false, perTime},
	{"httpapi.query_self_us", "us", false, perTime},
	{"codec.decode_ns_per_elem", "ns/elem", false, perTime},
	{"codec.keyed_decode_ns_per_elem", "ns/elem", false, perTime},
	{"quantile.addall_ns_per_elem", "ns/elem", false, perTime},
	{"quantile.allocs_per_kelem", "allocs/kelem", false, fixed},
	{"keyed.addall_ns_per_elem", "ns/elem", false, perTime},
	{"window.dual_write_ns_per_elem", "ns/elem", false, perTime},
	{"view.rebuild_us", "us", false, perTime},
	{"view.cached_ns", "ns", false, perTime},
	{"keyed.query_rebuild_us", "us", false, perTime},
	{"window.query_rebuild_us", "us", false, perTime},
	{"cluster.cut_us", "us", false, perTime},
	{"cluster.ship_us", "us", false, perTime},
	{"cluster.merge_us", "us", false, perTime},
	{"cluster.view_rebuild_us", "us", false, perTime},
	{"agg.reship_us", "us", false, perTime},
	{"cluster.ship_bytes_per_epoch", "bytes", false, fixed},
	{"gen.lag_p99_ms", "ms", false, fixed},
	{"trace.unattributed_frac", "frac", false, fixed},
	{"trace.overhead_frac", "frac", false, fixed},
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(ds))
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles returns the first quartile, median and third quartile of vs by
// the "exclusive" method of Python's statistics.quantiles(vs, n=4), the
// rule the benchmark's spread is judged by.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return q(1), median(s), q(3)
}

// median of vs, averaging the middle pair like Python's statistics.median.
func median(vs []float64) float64 {
	s := slices.Sorted(slices.Values(vs))
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDuration(ds []time.Duration) time.Duration {
	fs := make([]float64, len(ds))
	for i, d := range ds {
		fs[i] = float64(d)
	}
	return time.Duration(median(fs))
}
