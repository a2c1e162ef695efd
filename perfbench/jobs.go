package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/counters"
	"unimem/internal/exp"
	"unimem/internal/machine"
	"unimem/internal/model"
	"unimem/internal/scenario"
	"unimem/internal/workloads"
)

// This file replays the paper and fleet workloads job by job. It issues
// the same engine requests, in the same order, as the experiment suite's
// fig9, fig10, table4, fig4 and scenariofleet runners, and it assembles
// the same rows. A runner decides how each job executes: through the exp
// engine (timed or ExactSim) or through the traced harness of trace.go.

// stratKind selects how the traced runner builds a job's managers.
type stratKind int

const (
	kindStatic stratKind = iota // app.NewStaticFactory(name, pin)
	kindHint                    // hint-density tier fill
	kindXMem                    // offline profile, then static pin
	kindUnimem                  // the Unimem runtime
)

// job is one engine request of a pass.
type job struct {
	w    *workloads.Workload
	m    *machine.Machine
	st   exp.Strategy
	kind stratKind
	name string            // static manager name
	pin  func(string) bool // static fastest-tier set
	cfg  core.Config       // Unimem only
}

func staticJob(w *workloads.Workload, m *machine.Machine, name string, pin func(string) bool) job {
	return job{w: w, m: m, st: exp.StrategySuiteStatic(name, pin), kind: kindStatic, name: name, pin: pin}
}

func hintJob(w *workloads.Workload, m *machine.Machine) job {
	return job{w: w, m: m, st: exp.StrategyHintDensity(), kind: kindHint}
}

func xmemJob(w *workloads.Workload, m *machine.Machine) job {
	return job{w: w, m: m, st: exp.StrategyXMem(), kind: kindXMem}
}

// outcome is what a job returns to the pass that assembles rows.
type outcome struct {
	res *app.Result
	rts []*core.Runtime // rank order; Unimem only
	fp  app.FastPathStats
	hit bool
}

// runner executes the jobs of one pass. seed is the suite seed every
// job's harness options and calibration derive from.
type runner interface {
	run(j job) (outcome, error)
	calibration(m *machine.Machine) model.Calibration
}

const ranks = 4

// harnessOpts are the options the suite hands every run.
func harnessOpts(seed uint64) app.Options { return app.Options{Ranks: ranks, Seed: seed} }

// unimemJob mirrors Suite.unimemConfig: default config, the suite's
// memoized calibration and the suite seed.
func unimemJob(r runner, w *workloads.Workload, m *machine.Machine, seed uint64) job {
	cfg := core.DefaultConfig()
	cfg.Calibration = r.calibration(m)
	cfg.Seed = seed
	return job{w: w, m: m, st: exp.StrategyUnimem(), kind: kindUnimem, cfg: cfg}
}

// engineRunner executes jobs through a fresh exp engine and run cache,
// the way the suite does, and records each request's latency.
type engineRunner struct {
	eng  *exp.Engine
	seed uint64
	// opts are the harness options every job runs with.
	opts app.Options
	// reqs collects every request's latency in order; hit marks the ones
	// the run cache answered.
	reqs []request
	// cached keeps every cacheable job so the cache can be read back.
	cached []job
	// keep records every outcome in outs, for the traced pass to match.
	keep bool
	outs []outcome
}

type request struct {
	d   time.Duration
	hit bool
}

func newEngineRunner(seed uint64, exact bool) *engineRunner {
	opts := harnessOpts(seed)
	opts.ExactSim = exact
	return &engineRunner{eng: exp.NewEngine(false, exp.NewRunCache()), seed: seed, opts: opts}
}

func (r *engineRunner) calibration(m *machine.Machine) model.Calibration {
	return r.eng.Calibration(m, counters.Default(), r.seed^0xCA1)
}

func (r *engineRunner) run(j job) (outcome, error) {
	t0 := time.Now()
	res, rts, info, err := r.eng.ExecuteInfo(context.Background(), j.w, j.m, j.st, j.cfg, r.opts)
	d := time.Since(t0)
	if err != nil {
		return outcome{}, fmt.Errorf("%s on %s under %s: %w", j.w.Name, j.m.Name, j.st.Name(), err)
	}
	r.reqs = append(r.reqs, request{d: d, hit: info.CacheHit})
	if j.kind != kindUnimem {
		r.cached = append(r.cached, j)
	}
	o := outcome{res: res, rts: rts, fp: info.FastPath, hit: info.CacheHit}
	if r.keep {
		// Without the runtimes, whose heaps would stay live and change
		// the GC pacing of the passes that follow.
		r.outs = append(r.outs, outcome{res: res, fp: info.FastPath, hit: info.CacheHit})
	}
	return o, nil
}

// rereadCache requests every cacheable job of the finished pass again:
// all of them are run-cache reads. It returns their latencies.
func (r *engineRunner) rereadCache() ([]time.Duration, error) {
	out := make([]time.Duration, 0, len(r.cached))
	for _, j := range r.cached {
		t0 := time.Now()
		_, _, info, err := r.eng.ExecuteInfo(context.Background(), j.w, j.m, j.st, j.cfg, r.opts)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if !info.CacheHit {
			return nil, fmt.Errorf("re-read of %s under %s missed the run cache", j.w.Name, j.st.Name())
		}
		out = append(out, d)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// paper: fig9, fig10, table4, fig4

// paperIDs are the paper workload's artifacts, in pass order.
var paperIDs = []string{"fig9", "fig10", "table4", "fig4"}

// suiteTables regenerates the paper artifacts with the program's own
// experiment suite: serial, fresh run cache.
func suiteTables(seed uint64) ([]*exp.Table, error) {
	s := exp.NewSuite()
	s.Seed = seed
	s.Workers = 1
	_, reg := exp.Registry()
	var out []*exp.Table
	for _, id := range paperIDs {
		t, err := reg[id](s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// tablesDigest hashes the rendered tables, i.e. the stdout of
// `unimem-bench -exp fig9,fig10,table4,fig4`.
func tablesDigest(ts []*exp.Table) string {
	var b strings.Builder
	for _, t := range ts {
		t.Render(&b)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// blank copies a table's header (id, title, columns, notes) without rows.
func blank(t *exp.Table) *exp.Table {
	return &exp.Table{ID: t.ID, Title: t.Title, Columns: t.Columns, Notes: t.Notes}
}

// paperPass replays fig9, fig10, table4 and fig4 through r and returns the
// tables, with headers taken from hdr (the suite's own tables).
func paperPass(r runner, seed uint64, hdr []*exp.Table) ([]*exp.Table, error) {
	base := machine.PlatformA()
	fig9, err := comparison(r, seed, blank(hdr[0]), base.WithNVMBandwidthFraction(0.5))
	if err != nil {
		return nil, err
	}
	fig10, err := comparison(r, seed, blank(hdr[1]), base.WithNVMLatencyFactor(4))
	if err != nil {
		return nil, err
	}
	table4, err := migrationTable(r, seed, blank(hdr[2]), base.WithNVMBandwidthFraction(0.5))
	if err != nil {
		return nil, err
	}
	fig4, err := objectTable(r, seed, blank(hdr[3]))
	if err != nil {
		return nil, err
	}
	return []*exp.Table{fig9, fig10, table4, fig4}, nil
}

// paperPlatforms are the machines the paper pass runs Unimem on.
func paperPlatforms() []*machine.Machine {
	base := machine.PlatformA()
	return []*machine.Machine{base.WithNVMBandwidthFraction(0.5), base.WithNVMLatencyFactor(4)}
}

func dramTwin(m *machine.Machine) *machine.Machine {
	return m.WithNVMLatencyFactor(1).WithNVMBandwidthFraction(1)
}

func norm(t, base int64) float64 {
	if base == 0 {
		return 0
	}
	return float64(t) / float64(base)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// comparison is the fig9/fig10 cell loop: DRAM-only, NVM-only, X-Mem and
// Unimem per benchmark, normalized to DRAM-only, plus an average row.
func comparison(r runner, seed uint64, t *exp.Table, m *machine.Machine) (*exp.Table, error) {
	dm := dramTwin(m)
	var nvmN, xN, uN []float64
	for _, w := range workloads.EvalSuite("C", ranks) {
		var times [4]int64
		for i, j := range []job{
			staticJob(w, dm, "dram-only", nil),
			staticJob(w, m, "nvm-only", nil),
			xmemJob(w, m),
			unimemJob(r, w, m, seed),
		} {
			o, err := r.run(j)
			if err != nil {
				return nil, err
			}
			times[i] = o.res.TimeNS
		}
		nvm, x, u := norm(times[1], times[0]), norm(times[2], times[0]), norm(times[3], times[0])
		nvmN, xN, uN = append(nvmN, nvm), append(xN, x), append(uN, u)
		t.AddRow(w.Name, 1.00, nvm, x, u)
	}
	t.AddRow("avg", 1.00, mean(nvmN), mean(xN), mean(uN))
	return t, nil
}

// migrationTable is table4: rank 0's migration details under Unimem.
func migrationTable(r runner, seed uint64, t *exp.Table, m *machine.Machine) (*exp.Table, error) {
	for _, w := range workloads.EvalSuite("C", ranks) {
		o, err := r.run(unimemJob(r, w, m, seed))
		if err != nil {
			return nil, err
		}
		r0 := o.res.Ranks[0]
		cost := 0.0
		if r0.TimeNS > 0 {
			cost = r0.OverheadNS / float64(r0.TimeNS)
		}
		var overlap float64
		for _, rt := range o.rts {
			overlap += rt.MoverStats().OverlapFrac()
		}
		overlap /= float64(len(o.rts))
		t.AddRow(w.Name, r0.Migrations.Migrations,
			fmt.Sprintf("%d", r0.Migrations.BytesMigrated>>20),
			fmt.Sprintf("%.1f%%", cost*100),
			fmt.Sprintf("%.1f%%", overlap*100),
			o.rts[0].Decisions)
	}
	return t, nil
}

// objectTable is fig4: SP with single objects pinned in DRAM.
func objectTable(r runner, seed uint64, t *exp.Table) (*exp.Table, error) {
	base := machine.PlatformA()
	bigDRAM := int64(2) << 30
	groups := [][]string{{"in_buffer", "out_buffer"}, {"lhs"}, {"rhs"}}
	for _, class := range []string{"C", "D"} {
		for _, c := range []struct {
			label string
			m     *machine.Machine
		}{
			{"1/2 bw", base.WithNVMBandwidthFraction(0.5).WithDRAMCapacity(bigDRAM)},
			{"4x lat", base.WithNVMLatencyFactor(4).WithDRAMCapacity(bigDRAM)},
		} {
			w := workloads.NewSP(class, ranks)
			dram, err := r.run(staticJob(w, dramTwin(c.m), "dram-only", nil))
			if err != nil {
				return nil, err
			}
			row := []interface{}{class, c.label, 1.00}
			for _, g := range groups {
				set := make(map[string]bool, len(g))
				for _, n := range g {
					set[n] = true
				}
				o, err := r.run(staticJob(w, c.m, "pin:"+strings.Join(g, "+"), func(o string) bool { return set[o] }))
				if err != nil {
					return nil, err
				}
				row = append(row, norm(o.res.TimeNS, dram.res.TimeNS))
			}
			nvm, err := r.run(staticJob(w, c.m, "nvm-only", nil))
			if err != nil {
				return nil, err
			}
			row = append(row, norm(nvm.res.TimeNS, dram.res.TimeNS))
			t.AddRow(row...)
		}
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// fleet: the scenario-fleet sweep

// fleetPerArch is the number of scenarios generated per archetype.
const fleetPerArch = 3

// fleetPlatforms mirrors the suite's fleet platforms: the two-tier
// platform at 4x NVM latency and the capacity-tightened HBM+DDR+NVM stack.
func fleetPlatforms() []*machine.Machine {
	tight := machine.PlatformHBMDDRNVM().WithTierCapacity(0, 96<<20).WithTierCapacity(1, 160<<20)
	tight.Name = "HBM+DDR+NVM/tight"
	return []*machine.Machine{machine.PlatformA().WithNVMLatencyFactor(4), tight}
}

// specTimer observes scenario generation and compilation; nil observes
// nothing.
type specTimer interface {
	generate(a scenario.Archetype, seed uint64) (*scenario.Spec, error)
	compile(s *scenario.Spec) (*workloads.Workload, error)
}

type plainSpecs struct{}

func (plainSpecs) generate(a scenario.Archetype, seed uint64) (*scenario.Spec, error) {
	return scenario.Generate(a, seed)
}

func (plainSpecs) compile(s *scenario.Spec) (*workloads.Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.Compile()
}

// suiteFleet runs the program's own scenariofleet experiment.
func suiteFleet(seed uint64) ([]exp.FleetStat, error) {
	s := exp.NewSuite()
	s.Seed = seed
	s.Workers = 1
	s.Fleet = fleetPerArch
	t, err := s.ScenarioFleet()
	if err != nil {
		return nil, err
	}
	return t.FleetStats, nil
}

// fleetDigest hashes the FleetStat rows.
func fleetDigest(stats []exp.FleetStat) string {
	b, _ := json.Marshal(stats) // FleetStat holds only strings and numbers
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fleetPass generates, validates and compiles the fleet's scenarios and
// runs every (scenario, platform) cell under the four strategies.
func fleetPass(r runner, sp specTimer, seed uint64) ([]exp.FleetStat, error) {
	type cell struct {
		arch scenario.Archetype
		seed uint64
		spec *scenario.Spec
		w    *workloads.Workload
		m    *machine.Machine
	}
	var cells []cell
	for _, a := range scenario.Archetypes() {
		for i := 0; i < fleetPerArch; i++ {
			s := seed + uint64(i)
			spec, err := sp.generate(a, s)
			if err != nil {
				return nil, err
			}
			spec.Ranks = ranks
			w, err := sp.compile(spec)
			if err != nil {
				return nil, err
			}
			for _, m := range fleetPlatforms() {
				cells = append(cells, cell{a, s, spec, w, m})
			}
		}
	}
	stats := make([]exp.FleetStat, 0, len(cells))
	for _, c := range cells {
		var o [4]outcome
		for i, j := range []job{
			staticJob(c.w, c.m.FastTwin(), "fast-only", nil),
			hintJob(c.w, c.m),
			xmemJob(c.w, c.m),
			unimemJob(r, c.w, c.m, seed),
		} {
			var err error
			if o[i], err = r.run(j); err != nil {
				return nil, err
			}
		}
		fast, static, xm, uni := o[0].res, o[1].res, o[2].res, o[3].res
		best := static.TimeNS
		if xm.TimeNS < best {
			best = xm.TimeNS
		}
		stats = append(stats, exp.FleetStat{
			Archetype:       string(c.arch),
			Scenario:        c.spec.Name,
			Seed:            c.seed,
			Platform:        c.m.Name,
			FastestNS:       fast.TimeNS,
			StaticNS:        static.TimeNS,
			XMemNS:          xm.TimeNS,
			UnimemNS:        uni.TimeNS,
			SpeedupVsStatic: float64(static.TimeNS) / float64(uni.TimeNS),
			RegretFrac:      float64(uni.TimeNS)/float64(best) - 1,
			Migrations:      uni.TotalMigrations(),
			Decisions:       o[3].rts[0].Decisions,
		})
	}
	return stats, nil
}
