package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// exactCounts are the traced-run metrics a pure speed change must leave
// identical: they count work, not time.
var exactCounts = []string{
	"cells", "sim.cycles", "sim.instrs", "sim.pool_hit_ratio",
	"profile.runs", "profile.cache_hits", "trace.traces", "sched.blocks",
	"lower.instrs", "regalloc.spills",
	"server.cache_hit_ratio", "server.shed",
	"fleet.cache_tier_hit_ratio", "fleet.retries", "fleet.hedges",
}

// TestTracedCountsRepeat runs every workload's traced pass twice at a
// reduced size and checks that the exact counts repeat, that every cell
// passed its cross-check, and that every per-layer metric is reported.
func TestTracedCountsRepeat(t *testing.T) {
	small := size{paperBenches: 3, corpus: 20, serveRounds: 1, fleetRounds: 1}
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			e := &env{seed: 7, seconds: time.Second, nproc: runtime.NumCPU()}
			var runs [2]*report
			for i := range runs {
				r, _, err := traced(w, e, small)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 {
					t.Fatalf("run %d: %d of %d operations failed: %v", i, r.Failed, r.Attempted, r.reasons)
				}
				if len(r.Metrics) != len(perLayer) {
					t.Fatalf("run %d: %d metrics, want %d", i, len(r.Metrics), len(perLayer))
				}
				runs[i] = r
			}
			for _, m := range exactCounts {
				if a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value; a != b {
					t.Errorf("%s: %v then %v", m, a, b)
				}
			}
			if runs[0].Metrics["cells"].Value == 0 || runs[0].Metrics["sim.cycles"].Value == 0 {
				t.Errorf("no cells traced")
			}
			zero := map[string][]string{
				"gen_corpus": {"profile.runs", "profile.ms", "trace.traces"},
				"fleet_grid": {"fleet.hedges", "fleet.retries"},
			}[name]
			for _, m := range zero {
				if v := runs[0].Metrics[m].Value; v != 0 {
					t.Errorf("%s = %v, want 0", m, v)
				}
			}
			if name == "fleet_grid" {
				if v := runs[0].Metrics["fleet.cache_tier_hit_ratio"].Value; v != 1 {
					t.Errorf("fleet.cache_tier_hit_ratio = %v, want every failed-over cell from the tier", v)
				}
			}
		})
	}
}

// TestStreamsNeverRepeat checks that the cold serve stream and the fleet
// grids never ask for the same cell twice, nor for the priming cell.
func TestStreamsNeverRepeat(t *testing.T) {
	st := newCellStream(3)
	seen := map[cell]bool{}
	for i := 0; i < st.len(); i++ {
		c := st.at(i)
		if seen[c] || c.Config == primeConfig {
			t.Fatalf("cell %d %v repeats or is the priming cell", i, c)
		}
		seen[c] = true
	}
	seen = map[cell]bool{}
	for k := 0; k < st.grids(); k++ {
		b, cfgs := st.grid(k)
		for _, cfg := range cfgs {
			c := cell{b, cfg}
			if seen[c] || cfg == primeConfig {
				t.Fatalf("grid %d cell %v repeats or is the priming cell", k, c)
			}
			seen[c] = true
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that the traced run's metrics are
// exactly BENCHMARK.json's per_layer list, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i][0] || m.Unit != perLayer[i][1] {
			t.Errorf("per_layer[%d] = %s (%s), the benchmark prints %s (%s)", i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}
}
