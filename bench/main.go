// Command bench is the end-to-end benchmark of quantiled. It builds
// cmd/quantiled, starts real quantiled processes on 127.0.0.1 for each
// workload, drives seeded load from this one process over at most two
// connections, checks every answer against an exact oracle, and prints each
// metric as "workload metric value unit". With -trace it instead replays the
// workload in-process with handler spans and layer probes and prints the
// per-layer metrics. See README.md for the workloads, metrics and rules.
//
//	go run . -repo .. -workload slab-ingest -seconds 20
//	bash bench/run.sh --workload tree-3level --seed 3 --seconds 20 --trace 1
//	go run . -repo .. -runs 5 -json a.json
//	go run . -repo .. -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	runs     int
	jsonOut  string
	compare  bool
	repo     string
	buildDir string
	files    []string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed; run i of -runs uses seed+i")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run, after a warm-up of min(5s, seconds/4)")
	fs.BoolVar(&o.trace, "trace", false, "report per-layer metrics from a traced in-process replay")
	fs.IntVar(&o.runs, "runs", 1, "runs per workload; metrics report the median and quartiles")
	fs.StringVar(&o.jsonOut, "json", "", "also write every run's metrics to this file")
	fs.BoolVar(&o.compare, "compare", false, "compare two -json files by the BENCHMARK.json bounds: -compare a.json b.json")
	fs.StringVar(&o.repo, "repo", ".", "repository root")
	fs.StringVar(&o.buildDir, "build-dir", "", "where to build quantiled (default <repo>/.bench_build)")
	if err := fs.Parse(foldTrace(args)); err != nil {
		return o, err
	}
	o.files = fs.Args()
	switch {
	case o.compare && len(o.files) != 2:
		return o, fmt.Errorf("-compare takes two -json files")
	case !o.compare && len(o.files) > 0:
		return o, fmt.Errorf("unexpected arguments %q", o.files)
	case o.seconds <= 0 || o.runs < 1:
		return o, fmt.Errorf("-seconds and -runs must be positive")
	}
	if o.buildDir == "" {
		o.buildDir = filepath.Join(o.repo, ".bench_build")
	}
	return o, nil
}

// foldTrace rewrites the "--trace 0" / "--trace 1" spelling into the
// "-trace=0" form the flag package reads for a boolean.
func foldTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Valid     bool               `json:"valid"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Extra     map[string]float64 `json:"extra"`
	Samples   map[string]int     `json:"samples,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// report is what -json writes and -compare reads.
type report struct {
	Seconds float64  `json:"seconds"`
	Trace   bool     `json:"trace"`
	Runs    []result `json:"runs"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.compare {
		if err := compareFiles(stdout, filepath.Join(o.repo, "BENCHMARK.json"), o.files[0], o.files[1]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	ws := workloads
	if o.workload != "all" {
		w, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	bin, err := buildQuantiled(ctx, o.repo, o.buildDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep := report{Seconds: o.seconds, Trace: o.trace}
	for i := 0; i < o.runs; i++ {
		order := slices.Clone(ws)
		if i%2 == 1 {
			slices.Reverse(order) // alternate the workload order between runs
		}
		for _, w := range order {
			seed := o.seed + uint64(i)
			fmt.Fprintf(stderr, "bench: %s seed %d run %d/%d\n", w.name, seed, i+1, o.runs)
			res, err := runOne(ctx, bin, w, seed, secs(o.seconds), o.trace)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			for _, n := range res.Notes {
				fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, n)
			}
			rep.Runs = append(rep.Runs, res)
		}
	}
	if o.jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := printReport(stdout, rep, ws); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runOne makes one run: the live run against quantiled processes and, when
// tracing, the in-process replay.
func runOne(ctx context.Context, bin string, w *workload, seed uint64, seconds time.Duration, trace bool) (result, error) {
	p := newPool(w, seed)
	warm := min(5*time.Second, seconds/4)
	measure := seconds
	if trace {
		measure = seconds / 2
	}
	l, err := runLive(ctx, bin, w, p, seed, warm, measure, trace)
	if err != nil {
		return result{}, err
	}
	res := result{Workload: w.name, Seed: seed, Trace: trace, Attempted: l.attempted, Failed: l.failed, Notes: l.notes}
	lag := l.genLagP99()
	res.Valid = lag <= 2
	if !res.Valid {
		res.Notes = append(res.Notes, fmt.Sprintf("run invalid: generator lag p99 %.3f ms > 2 ms", lag))
	}
	defs, probeUs := endToEndDefs, l.probeUs
	if !trace {
		res.Metrics, res.Extra, res.Samples = l.endToEnd()
	} else {
		defs = perLayerDefs
		if res.Metrics, probeUs, err = runTrace(ctx, w, p, seed, seconds/2); err != nil {
			return result{}, err
		}
		res.Metrics["gen.lag_p99_ms"] = lag
		res.Extra = l.counters()
		res.Extra["fail_frac"] = float64(l.failed) / float64(max(l.attempted, 1))
	}
	factor := probeUs / probeRefUs
	toReference(res.Metrics, defs, factor, w.closed)
	res.Extra["host.factor"] = factor
	res.Correct = res.Failed == 0
	return res, nil
}

var extraUnits = map[string]string{
	"fail_frac":                      "frac",
	"host.factor":                    "x",
	"view.rebuilds_per_query":        "rebuilds/query",
	"view.hit_ratio":                 "frac",
	"window.rebuilds_per_query":      "rebuilds/query",
	"window.rotations_per_s":         "1/s",
	"keyed.lru_evictions_per_kframe": "evictions/kframe",
	"cluster.root_view_hit_ratio":    "frac",
	"cluster.merge_ms_per_epoch":     "ms",
	"cluster.ship_retries":           "count",
	"quantile.memory_elements":       "elements",
	"quantile.memory_frac_of_bk":     "frac",
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric as "workload metric value unit" (the
// median over runs, with quartiles when there are several), then the
// result object as the last line.
func printReport(w io.Writer, rep report, ws []*workload) error {
	defs := endToEndDefs
	if rep.Trace {
		defs = perLayerDefs
	}
	final := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Correct: true, Metrics: map[string]valueUnit{}}
	for _, wl := range ws {
		var runs []result
		for _, r := range rep.Runs {
			if r.Workload == wl.name {
				runs = append(runs, r)
				final.Correct = final.Correct && r.Correct
				final.Attempted += r.Attempted
				final.Failed += r.Failed
			}
		}
		line := func(name, unit string, vals []float64, n int) float64 {
			q1, med, q3 := quartiles(vals)
			fmt.Fprintf(w, "%s %s %.6g %s", wl.name, name, med, unit)
			if n > 0 {
				fmt.Fprintf(w, " n=%d", n)
			}
			if len(vals) > 1 {
				fmt.Fprintf(w, " q1=%.6g q3=%.6g spread=%.3f", q1, q3, (q3-q1)/med)
			}
			fmt.Fprintln(w)
			return med
		}
		for _, d := range defs {
			var vals []float64
			n := 0
			for _, r := range runs {
				vals = append(vals, r.Metrics[d.name])
				n = max(n, r.Samples[d.name])
			}
			med := line(d.name, d.unit, vals, n)
			key := d.name
			if len(ws) > 1 {
				key = wl.name + "/" + d.name
			}
			final.Metrics[key] = valueUnit{med, d.unit}
		}
		var extras []string
		for _, r := range runs {
			for name := range r.Extra {
				if !slices.Contains(extras, name) {
					extras = append(extras, name)
				}
			}
		}
		slices.Sort(extras)
		for _, name := range extras {
			var vals []float64
			for _, r := range runs {
				if v, ok := r.Extra[name]; ok {
					vals = append(vals, v)
				}
			}
			line(name, extraUnits[name], vals, 0)
		}
		for _, r := range runs {
			if !r.Valid {
				fmt.Fprintf(w, "%s seed %d invalid: generator lag above 2 ms\n", wl.name, r.Seed)
			}
		}
	}
	b, err := json.Marshal(final)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Fprintln(w, string(b))
	return nil
}
