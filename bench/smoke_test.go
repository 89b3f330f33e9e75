package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkSpecMatchesCode holds BENCHMARK.json and the metric tables
// the benchmark prints from to the same names, units and directions.
func TestBenchmarkSpecMatchesCode(t *testing.T) {
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, want %s at %d", names, w.name, i)
		}
	}
	direction := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	var e2e, layer []string
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, fmt.Sprint(m.Name, m.Unit, m.Better))
	}
	for _, m := range sp.PerLayer {
		layer = append(layer, fmt.Sprint(m.Name, m.Unit, m.Better))
	}
	for i, d := range endToEndDefs {
		if want := fmt.Sprint(d.name, d.unit, direction(d.higher)); i >= len(e2e) || e2e[i] != want {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %v, code prints %s", i, e2e, want)
		}
	}
	for i, d := range perLayerDefs {
		if want := fmt.Sprint(d.name, d.unit, direction(d.higher)); i >= len(layer) || layer[i] != want {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %v, code prints %s", i, layer, want)
		}
	}
	if len(e2e) != len(endToEndDefs) || len(layer) != len(perLayerDefs) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the code %d+%d", len(e2e), len(layer), len(endToEndDefs), len(perLayerDefs))
	}
}

// TestSmoke runs every workload for about a second against a freshly built
// quantiled, untraced and traced, and checks that every metric
// BENCHMARK.json names is printed with its unit and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts quantiled processes")
	}
	ctx := context.Background()
	bin, err := buildQuantiled(ctx, "..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		defs := endToEndDefs
		if trace {
			defs = perLayerDefs
		}
		for _, w := range workloads {
			res, err := runOne(ctx, bin, w, 1, time.Second, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.name, trace, res.Failed, res.Attempted, res.Notes)
			}
			var out bytes.Buffer
			if err := printReport(&out, report{Seconds: 1, Trace: trace, Runs: []result{res}}, []*workload{w}); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var final struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			if len(final.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: result has %d metrics, want %d", w.name, trace, len(final.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := final.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or without unit %s: %+v", w.name, trace, d.name, d.unit, m)
				}
				prefix := fmt.Sprintf("%s %s ", w.name, d.name)
				if !slicesContainsPrefix(lines, prefix, " "+d.unit) {
					t.Errorf("%s: no line %q...%q", w.name, prefix, d.unit)
				}
			}
			if v := final.Metrics["trace.unattributed_frac"].Value; trace && v != nil && *v > 0.15 {
				t.Errorf("%s: unattributed share %v above 0.15", w.name, *v)
			}
		}
	}
}

func slicesContainsPrefix(lines []string, prefix, unit string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) && strings.Contains(l, unit) {
			return true
		}
	}
	return false
}
