package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestMain serves the set-up probe: runEngine times set-up by starting
// this binary again with --setup-probe.
func TestMain(m *testing.M) {
	for i, a := range os.Args {
		if a == "--setup-probe" && i >= 2 {
			sessionStart(os.Args[2], defaultSeed)
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// benchmarkSpec reads the metric lists of the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(rep *report) []string {
	var out []string
	for n := range rep.Metrics {
		out = append(out, n)
	}
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: metrics %v, BENCHMARK.json lists %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: metrics %v, BENCHMARK.json lists %v", what, got, want)
		}
	}
}

func serveBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "unimem-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "unimem/cmd/unimem-serve").CombinedOutput(); err != nil {
		t.Fatalf("build unimem-serve: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin, workload string, seed uint64, dur time.Duration, traced bool) *report {
	t.Helper()
	var rep *report
	var err error
	if workload == "serve" {
		rep, err = runServe(bin, seed, dur, traced)
	} else {
		rep, err = runEngine(workload, seed, dur, traced)
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", workload, seed, rep.Failed, rep.Attempted, rep.notes)
	}
	return rep
}

// countMetrics are the traced run's counts that must repeat exactly for a
// seed: the simulation is deterministic.
var countMetrics = []string{
	"mpisim.events", "mover.migrations", "core.decisions", "core.tiered_decisions",
	"exp.cache_hits", "exp.cache_misses", "app.fastforwards",
}

// TestCountsRepeat runs each workload's traced run twice on one seed: the
// per-layer counts repeat exactly, and the traced results matched the
// untraced ones (runEngine and runServe fail the run otherwise).
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	_, perLayer := benchmarkSpec(t)
	bin := serveBinary(t)
	for _, w := range []string{"paper", "fleet", "serve"} {
		a := run(t, bin, w, defaultSeed, 2*time.Second, true)
		b := run(t, bin, w, defaultSeed, 2*time.Second, true)
		sameSet(t, w+" traced", names(a), perLayer)
		for _, m := range countMetrics {
			if a.Metrics[m] != b.Metrics[m] {
				t.Errorf("%s: %s %v then %v", w, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		tiered := a.Metrics["core.tiered_decisions"].Value
		if w == "paper" && tiered != 0 {
			t.Errorf("paper: core.tiered_decisions = %v, want 0 (every paper platform is two-tier)", tiered)
		}
		if w == "fleet" && tiered == 0 {
			t.Errorf("fleet: core.tiered_decisions = 0, want > 0 (the three-tier MCKP runs)")
		}
	}
}

// TestSecondSeed runs every workload untraced on a seed other than the
// default one: its references come from the ExactSim replay and the
// library, and every operation verifies.
func TestSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, _ := benchmarkSpec(t)
	bin := serveBinary(t)
	for _, w := range []string{"paper", "fleet", "serve"} {
		rep := run(t, bin, w, 11, 4*time.Second, false)
		sameSet(t, w, names(rep), endToEnd)
		for n, m := range rep.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, n, m.Value)
			}
		}
	}
}

// TestLatencyGrowth checks the ladder's backlog test: a level latency
// does not grow, a latency that climbs with send time does.
func TestLatencyGrowth(t *testing.T) {
	t0 := time.Now()
	rung := func(lat func(i int) time.Duration) []shot {
		shots := make([]shot, 101)
		for i := range shots {
			due := t0.Add(time.Duration(i) * 10 * time.Millisecond)
			shots[i] = shot{due: due, done: due.Add(lat(i))}
		}
		return shots
	}
	level := latencyGrowth(rung(func(i int) time.Duration { return time.Duration(5+i%3) * time.Millisecond }))
	if level < -1 || level > 1 {
		t.Errorf("level latency grew %.2f ms", level)
	}
	// The thirds' medians are the latencies of shots 16 and 84.
	climb := latencyGrowth(rung(func(i int) time.Duration { return time.Duration(i) * time.Millisecond }))
	if climb != 68 {
		t.Errorf("latency climbing 1 ms per shot grew %.2f ms, want 68", climb)
	}
}

// TestPauseNS checks that GC pauses are summed from the server's
// circular record only while it holds every cycle in between.
func TestPauseNS(t *testing.T) {
	rec := make([]float64, 256)
	for i := range rec {
		rec[i] = float64(i)
	}
	// Cycles 300..302 sit at (k+255)%256: 43, 44, 45.
	sum, ok := pauseNS(serverMem{numGC: 299}, serverMem{numGC: 302, pauses: rec})
	if !ok || sum != 43+44+45 {
		t.Errorf("3 cycles: sum %g ok %v, want 132 true", sum, ok)
	}
	if _, ok := pauseNS(serverMem{numGC: 10}, serverMem{numGC: 267, pauses: rec}); ok {
		t.Error("257 cycles summed from a 256-entry record")
	}
}
