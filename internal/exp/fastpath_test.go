package exp

import (
	"context"
	"reflect"
	"testing"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/machine"
	"unimem/internal/scenario"
)

// TestFastPathDifferentialRandomized is the randomized exact-vs-fast
// differential suite: every generator archetype, under the full Unimem
// runtime and the cache-exempt static baselines, must produce
// byte-identical results with the steady-state fast path on and off — and
// the fast path must have engaged somewhere, or the equality is vacuous.
// The engine runs uncached so both sides really execute.
func TestFastPathDifferentialRandomized(t *testing.T) {
	eng := NewEngine(true, nil) // quick, uncached: both sides execute fresh
	m := machine.PlatformA().WithNVMLatencyFactor(4)
	strategies := []struct {
		name string
		st   Strategy
	}{
		{"unimem", StrategyUnimem()},
		{"hint-density", StrategyHintDensity()},
		{"xmem", StrategyXMem()},
	}
	var analytic, hits int64
	for _, a := range scenario.Archetypes() {
		for si, seed := range []uint64{0x5EED, 0xFA57} {
			spec, err := scenario.Generate(a, seed)
			if err != nil {
				t.Fatal(err)
			}
			spec.Ranks = 2
			w, err := spec.Compile()
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range strategies {
				cfg := core.DefaultConfig()
				cfg.Seed = seed
				run := func(exact bool) (*app.Result, []*core.Runtime, ExecInfo) {
					res, rts, info, err := eng.ExecuteInfo(context.Background(), w, m, s.st, cfg,
						app.Options{Ranks: spec.Ranks, Seed: seed, ExactSim: exact})
					if err != nil {
						t.Fatalf("%s/%s seed %d: %v", a, s.name, si, err)
					}
					return res, rts, info
				}
				exRes, exRts, exInfo := run(true)
				faRes, faRts, faInfo := run(false)
				if !reflect.DeepEqual(exRes, faRes) {
					t.Errorf("%s/%s/%s: results diverge with fast path on", a, spec.Name, s.name)
				}
				if exInfo.FastPath.AnalyticIters != 0 || exInfo.FastPath.FastForwards != 0 {
					t.Errorf("%s/%s/%s: exact run fast-forwarded: %+v",
						a, spec.Name, s.name, exInfo.FastPath)
				}
				for r := range exRts {
					if exRts[r].Decisions != faRts[r].Decisions ||
						!reflect.DeepEqual(exRts[r].ReprofileIters, faRts[r].ReprofileIters) {
						t.Errorf("%s/%s rank %d: adaptation history diverges: exact(%d %v) fast(%d %v)",
							a, spec.Name, r, exRts[r].Decisions, exRts[r].ReprofileIters,
							faRts[r].Decisions, faRts[r].ReprofileIters)
					}
				}
				analytic += faInfo.FastPath.AnalyticIters
				hits += faInfo.FastPath.MemoHits
			}
		}
	}
	if analytic == 0 {
		t.Fatal("fast path never engaged across the differential suite; equality is vacuous")
	}
	if hits == 0 {
		t.Fatal("phase memo never hit across the differential suite")
	}
}

// TestFastPathFullLengthStationary runs one full-length (uncapped)
// stationary workload through both paths: long stable windows are where
// extrapolation drift would compound if the arithmetic were not exact.
func TestFastPathFullLengthStationary(t *testing.T) {
	eng := NewEngine(false, nil)
	m := machine.PlatformA().WithNVMLatencyFactor(4)
	spec, err := scenario.Generate(scenario.Archetypes()[0], 0x5EED)
	if err != nil {
		t.Fatal(err)
	}
	spec.Ranks = 2
	spec.Iterations = 120
	w, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	run := func(exact bool) (*app.Result, ExecInfo) {
		res, _, info, err := eng.ExecuteInfo(context.Background(), w, m, StrategyUnimem(), cfg,
			app.Options{Ranks: spec.Ranks, ExactSim: exact})
		if err != nil {
			t.Fatal(err)
		}
		return res, info
	}
	exact, _ := run(true)
	fast, info := run(false)
	if !reflect.DeepEqual(exact, fast) {
		t.Fatal("full-length results diverge with fast path on")
	}
	if info.FastPath.AnalyticIters == 0 {
		t.Fatalf("fast path never engaged on a 120-iteration stationary run: %+v", info.FastPath)
	}
}
