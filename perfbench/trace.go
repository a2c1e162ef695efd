package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime/metrics"
	"time"

	"unimem/internal/app"
	"unimem/internal/core"
	"unimem/internal/counters"
	"unimem/internal/exp"
	"unimem/internal/machine"
	"unimem/internal/model"
	"unimem/internal/mpisim"
	"unimem/internal/phase"
	"unimem/internal/placement"
	"unimem/internal/scenario"
	"unimem/internal/workloads"
	"unimem/internal/xmem"
)

// This file is the traced run: it executes the same jobs as the untraced
// pass, but calls the harness itself with every manager wrapped, so the
// time spent in each layer's public functions is measured from here. The
// program is not modified; spans are kept as accumulated totals.

// layers accumulates one traced pass's per-layer totals.
type layers struct {
	generate, compile         time.Duration
	compileBytes              uint64
	calibrate                 time.Duration
	setup, begin, end, decide time.Duration
	setupBytes                uint64
	loop                      time.Duration // LoopStart + LoopEnd
	runWall                   time.Duration // app.RunCtx wall of wrapped runs
	xmemProfile               time.Duration
	decisions, tiered         int
	runs                      int
	migrations                int
	migratedBytes             int64
	simIters, skipIters, ffs  int64
	events                    int64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocated is the cumulative heap allocation. Unlike ReadMemStats it
// does not stop the world; small objects count once their span leaves
// the per-P cache, large ones (the heap's chunk backing) at once.
func allocated() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// tracedMgr wraps one rank's manager and times its callbacks. Each rank
// owns its wrapper, and totals are read after app.RunCtx returns.
type tracedMgr struct {
	app.Manager
	rt *core.Runtime // nil for baseline managers

	setup, begin, end, decide, loop time.Duration
	setupBytes                      uint64
	decisions, tiered               int
}

func (m *tracedMgr) Setup(ctx *app.RankCtx) error {
	a0 := allocated()
	t0 := time.Now()
	err := m.Manager.Setup(ctx)
	m.setup += time.Since(t0)
	m.setupBytes += allocated() - a0
	return err
}

func (m *tracedMgr) LoopStart(ctx *app.RankCtx) {
	t0 := time.Now()
	m.Manager.LoopStart(ctx)
	m.loop += time.Since(t0)
}

func (m *tracedMgr) LoopEnd(ctx *app.RankCtx) {
	t0 := time.Now()
	m.Manager.LoopEnd(ctx)
	m.loop += time.Since(t0)
}

// PhaseBegin is where the runtime decides: at the first phase boundary
// after a profiled iteration. A call after which Plan() or TierPlan()
// changed counts as a decision, and its time as decide time.
func (m *tracedMgr) PhaseBegin(ctx *app.RankCtx, name string, kind phase.Kind, mpiOp string) {
	var plan *placement.Plan
	var tier *placement.TieredPlan
	if m.rt != nil {
		plan, tier = m.rt.Plan(), m.rt.TierPlan()
	}
	t0 := time.Now()
	m.Manager.PhaseBegin(ctx, name, kind, mpiOp)
	d := time.Since(t0)
	m.begin += d
	if m.rt != nil && (m.rt.Plan() != plan || m.rt.TierPlan() != tier) {
		m.decide += d
		m.decisions++
		if m.rt.TierPlan() != tier {
			m.tiered++
		}
	}
}

func (m *tracedMgr) PhaseEnd(ctx *app.RankCtx, durNS float64, traffic []counters.ChunkTraffic) {
	t0 := time.Now()
	m.Manager.PhaseEnd(ctx, durNS, traffic)
	m.end += time.Since(t0)
}

// tracedFastPather keeps the fast path on: the harness enables it only
// for managers that implement app.FastPather.
type tracedFastPather struct {
	*tracedMgr
	fp app.FastPather
}

func (m tracedFastPather) SteadyState() bool { return m.fp.SteadyState() }
func (m tracedFastPather) FastForward(n int) { m.fp.FastForward(n) }

// wrap returns the traced form of mgr, a FastPather whenever mgr is one.
func wrap(mgr app.Manager) (app.Manager, *tracedMgr) {
	t := &tracedMgr{Manager: mgr}
	t.rt, _ = mgr.(*core.Runtime)
	if fp, ok := mgr.(app.FastPather); ok {
		return tracedFastPather{t, fp}, t
	}
	return t, t
}

// tracedRunner executes jobs with wrapped managers. Cacheable jobs are
// memoized under the engine's own run key, so a traced pass executes
// exactly the runs an untraced pass executes. Every result is checked
// against want, the untraced pass's outcome of the same job.
type tracedRunner struct {
	seed uint64
	opts app.Options
	eng  *exp.Engine // calibration only
	memo map[string]outcome
	l    *layers
	want []outcome
	next int
}

func newTracedRunner(seed uint64, want []outcome) *tracedRunner {
	return &tracedRunner{seed: seed, opts: harnessOpts(seed), eng: exp.NewEngine(false, nil),
		memo: map[string]outcome{}, l: &layers{}, want: want}
}

func (r *tracedRunner) calibration(m *machine.Machine) model.Calibration {
	t0 := time.Now()
	c := r.eng.Calibration(m, counters.Default(), r.seed^0xCA1)
	r.l.calibrate += time.Since(t0)
	return c
}

func (r *tracedRunner) run(j job) (outcome, error) {
	o, err := r.exec(j)
	if err != nil {
		return o, err
	}
	if r.want != nil {
		if r.next >= len(r.want) {
			return o, fmt.Errorf("traced pass issued more jobs than the untraced pass")
		}
		w := r.want[r.next]
		if !reflect.DeepEqual(o.res, w.res) {
			return o, fmt.Errorf("traced result of %s under %s differs from the untraced result", j.w.Name, j.st.Name())
		}
		if o.fp != w.fp || o.hit != w.hit {
			return o, fmt.Errorf("traced run of %s under %s: fast path %+v hit %v, untraced %+v hit %v",
				j.w.Name, j.st.Name(), o.fp, o.hit, w.fp, w.hit)
		}
	}
	r.next++
	return o, nil
}

func (r *tracedRunner) exec(j job) (outcome, error) {
	ctx := context.Background()
	opts := r.opts
	// The engine hands the X-Mem profile pass the same fast-path sink.
	var fp app.FastPathStats
	opts.FastPath = &fp
	var key string
	if j.kind != kindUnimem {
		key = exp.RouteKey(j.w, j.m, j.st, false, opts)
		if o, ok := r.memo[key]; ok {
			return outcome{res: o.res, hit: true}, nil
		}
	}
	var mf app.ManagerFactory
	switch j.kind {
	case kindStatic:
		mf = app.NewStaticFactory(j.name, j.pin)
	case kindHint:
		mf = app.NewTieredStaticFactory("tiered-static", exp.TieredStaticAssign(j.w, j.m))
	case kindXMem:
		t0 := time.Now()
		prof, err := xmem.Profile(ctx, j.w, j.m, opts)
		r.l.xmemProfile += time.Since(t0)
		if err != nil {
			return outcome{}, err
		}
		mf = xmem.Factory(xmem.BuildPlacement(j.w, j.m, prof))
	case kindUnimem:
		cfg := j.cfg
		if cfg.Calibration == (model.Calibration{}) {
			// As the engine does for sessions, which pass no calibration.
			t0 := time.Now()
			cfg.Calibration = r.eng.Calibration(j.m, cfg.Counters, cfg.Seed^0xCA11B)
			r.l.calibrate += time.Since(t0)
		}
		mf = func(rank int) app.Manager { return core.NewRuntime(rank, cfg) }
	}
	n := opts.Ranks
	if n == 0 {
		n = j.w.Ranks // the harness default
	}
	wrapped := make([]*tracedMgr, n)
	factory := func(rank int) app.Manager {
		m, t := wrap(mf(rank))
		wrapped[rank] = t
		return m
	}
	ev0 := mpisim.ReadCoreStats().Events
	t0 := time.Now()
	res, err := app.RunCtx(ctx, j.w, j.m, opts, factory)
	r.l.runWall += time.Since(t0)
	r.l.events += mpisim.ReadCoreStats().Events - ev0
	if err != nil {
		return outcome{}, fmt.Errorf("%s on %s under %s: %w", j.w.Name, j.m.Name, j.st.Name(), err)
	}
	o := outcome{res: res, fp: fp}
	for _, t := range wrapped {
		r.l.setup += t.setup
		r.l.setupBytes += t.setupBytes
		r.l.begin += t.begin
		r.l.end += t.end
		r.l.decide += t.decide
		r.l.loop += t.loop
		r.l.decisions += t.decisions
		r.l.tiered += t.tiered
		if t.rt != nil {
			o.rts = append(o.rts, t.rt)
		}
	}
	r.l.runs++
	r.l.migrations += res.TotalMigrations()
	r.l.migratedBytes += res.TotalBytesMigrated()
	r.l.simIters += fp.SimulatedIters
	r.l.skipIters += fp.AnalyticIters
	r.l.ffs += fp.FastForwards
	if key != "" {
		r.memo[key] = o
	}
	return o, nil
}

// tracedSpecs times scenario generation and validation plus compilation.
type tracedSpecs struct{ l *layers }

func (s tracedSpecs) generate(a scenario.Archetype, seed uint64) (*scenario.Spec, error) {
	t0 := time.Now()
	spec, err := scenario.Generate(a, seed)
	s.l.generate += time.Since(t0)
	return spec, err
}

// compile counts bytes with ReadMemStats: compilation allocates small
// objects, which allocated() would count late.
func (s tracedSpecs) compile(spec *scenario.Spec) (*workloads.Workload, error) {
	m0 := readMem()
	t0 := time.Now()
	w, err := plainSpecs{}.compile(spec)
	s.l.compile += time.Since(t0)
	s.l.compileBytes += readMem().alloc - m0.alloc
	return w, err
}
