package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(file string, out any) error {
	b, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s: %w", file, err)
	}
	return nil
}

// verdict judges run set b (the change) against run set a (the parent) for
// one metric. b is better when every run of b beats every run of a, or when
// its median beats a's by more than a's own spread and b wins nine in ten
// index-paired runs; worse when its median is worse by more than the bound;
// unresolved when a's spread exceeds the bound; unchanged otherwise.
func verdict(a, b []float64, higher bool, bound float64) string {
	better := func(x, y float64) bool { return x > y == higher && x != y }
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	q1, medA, q3 := quartiles(a)
	medB := median(b)
	spread := (q3 - q1) / math.Abs(medA)
	worse := (medB - medA) / math.Abs(medA) // > 0: b is worse
	if higher {
		worse = -worse
	}
	wins := 0
	for i := range min(len(a), len(b)) {
		if better(b[i], a[i]) {
			wins++
		}
	}
	switch {
	case allBetter:
		return "better"
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "worse"
	case -worse > spread && float64(wins) >= 0.9*float64(min(len(a), len(b))):
		return "better"
	default:
		return "unchanged"
	}
}

// compareFiles prints one verdict per workload and end-to-end metric, and
// the medians of every per-layer metric, for two -json reports.
func compareFiles(w io.Writer, specFile, fileA, fileB string) error {
	var sp spec
	var a, b report
	for file, out := range map[string]any{specFile: &sp, fileA: &a, fileB: &b} {
		if err := readJSON(file, out); err != nil {
			return err
		}
	}
	values := func(r report, wl, metric string) []float64 {
		var out []float64
		for _, run := range r.Runs {
			if v, ok := run.Metrics[metric]; ok && run.Workload == wl {
				out = append(out, v)
			}
		}
		return out
	}
	fmt.Fprintln(w, "workload metric verdict median_a median_b change spread_a bound")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1, medA, q3 := quartiles(va)
			medB := median(vb)
			fmt.Fprintf(w, "%s %s %s %.6g %.6g %+.1f%% %.3f %.2f\n", wl.Name, m.Name,
				verdict(va, vb, m.Better == "higher", m.Bound), medA, medB,
				100*(medB-medA)/math.Abs(medA), (q3-q1)/math.Abs(medA), m.Bound)
		}
		for _, m := range sp.PerLayer {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1, medA, q3 := quartiles(va)
			medB := median(vb)
			fmt.Fprintf(w, "%s %s layer %.6g %.6g %+.1f%% %.3f -\n", wl.Name, m.Name, medA, medB,
				100*(medB-medA)/math.Abs(medA), (q3-q1)/math.Abs(medA))
		}
	}
	return nil
}
