package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// sequence returns the first n request paths of one phase's stream.
func sequence(w workload, seed int64, phase, n int) []string {
	g := newGenerator(w, seed, phase)
	out := make([]string, n)
	for i := range out {
		out[i] = g.next().path
	}
	return out
}

// TestSameSeedSameSchedule checks that the workload seed alone fixes the
// study seeds and the request sequence, and that another seed changes
// them.
func TestSameSeedSameSchedule(t *testing.T) {
	for _, w := range workloads {
		for _, phase := range []int{phaseClosed, phaseOpen, phaseTraced} {
			a, b := sequence(w, 7, phase, 500), sequence(w, 7, phase, 500)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s phase %d: seed 7 gave two request sequences", w.name, phase)
			}
			if reflect.DeepEqual(a, sequence(w, 8, phase, 500)) {
				t.Errorf("%s phase %d: seeds 7 and 8 gave the same request sequence", w.name, phase)
			}
		}
		if w.pool > 0 {
			if !reflect.DeepEqual(poolSeeds(w, 7), poolSeeds(w, 7)) {
				t.Errorf("%s: seed 7 gave two study pools", w.name)
			}
			if reflect.DeepEqual(poolSeeds(w, 7), poolSeeds(w, 8)) {
				t.Errorf("%s: seeds 7 and 8 gave the same study pool", w.name)
			}
		}
	}
}

// TestWorkloadSeeds checks the seed properties the workloads rely on:
// pools are distinct seeds, and cold-build never repeats a seed across
// its phases or reuses a pool seed.
func TestWorkloadSeeds(t *testing.T) {
	for _, w := range workloads {
		if w.pool == 0 {
			continue
		}
		pool := poolSeeds(w, 3)
		seen := make(map[int64]bool)
		for _, s := range pool {
			if seen[s] || s <= 0 || s >= 1<<20 {
				t.Errorf("%s: pool %v has a repeated or out-of-range seed", w.name, pool)
			}
			seen[s] = true
		}
	}
	cold, err := workloadByName("cold-build")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{coldSeed(3, phaseWarmup, 0): true}
	for _, phase := range []int{phaseClosed, phaseOpen, phaseTraced} {
		g := newGenerator(cold, 3, phase)
		for i := 0; i < 2000; i++ {
			s := g.next().seed
			if seen[s] || s < 1<<20 {
				t.Fatalf("phase %d request %d: seed %d repeats or could be a pool seed", phase, i, s)
			}
			seen[s] = true
		}
	}
}

// TestMixShares checks that the generator draws ops in proportion to the
// mix weights.
func TestMixShares(t *testing.T) {
	w, err := workloadByName("warm-mix")
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(w, 1, phaseClosed)
	const n = 103000
	counts := make([]int, len(defaultMix))
	for i := 0; i < n; i++ {
		counts[g.next().op]++
	}
	for i, op := range defaultMix {
		want := float64(n) * float64(op.weight) / float64(mixWeight)
		if got := float64(counts[i]); got < 0.9*want || got > 1.1*want {
			t.Errorf("%s: drawn %v times, want about %v", op.name, got, want)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark reports, with the same units and
// directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	for _, c := range []struct {
		kind string
		got  []metric
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", c.kind, len(c.got), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			g := c.got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s %s, benchmark reports %s %s %s",
					c.kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if (g.Bound != nil) != (c.kind == "end_to_end") {
				t.Errorf("%s %s: bound present = %v", c.kind, g.Name, g.Bound != nil)
			}
		}
	}
}
