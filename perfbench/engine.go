package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"unimem/internal/workloads"
)

// reference.json holds the output digests of the default seed, taken from
// the program's own experiment suite.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Seed  uint64 `json:"seed"`
	Paper string `json:"paper"`
	Fleet string `json:"fleet"`
	Serve string `json:"serve"`
}

func loadReference() (reference, error) {
	var ref reference
	err := json.Unmarshal(referenceJSON, &ref)
	return ref, err
}

// passFunc replays one pass of an engine workload through r and returns
// the digest of its outputs.
type passFunc func(r runner, sp specTimer) (string, error)

// engineWorkload runs the program's own experiment code for the workload
// once, untimed, and returns its digest and the replayed pass.
func engineWorkload(name string, seed uint64) (string, passFunc, error) {
	if name == "paper" {
		hdr, err := suiteTables(seed)
		if err != nil {
			return "", nil, err
		}
		return tablesDigest(hdr), func(r runner, _ specTimer) (string, error) {
			ts, err := paperPass(r, seed, hdr)
			if err != nil {
				return "", err
			}
			return tablesDigest(ts), nil
		}, nil
	}
	stats, err := suiteFleet(seed)
	if err != nil {
		return "", nil, err
	}
	return fleetDigest(stats), func(r runner, sp specTimer) (string, error) {
		st, err := fleetPass(r, sp, seed)
		if err != nil {
			return "", err
		}
		return fleetDigest(st), nil
	}, nil
}

// referenceDigest establishes the digest every timed pass must match: the
// program's own suite output must equal an untimed serial ExactSim replay,
// and for the default seed also the committed digest.
func referenceDigest(name string, seed uint64) (string, passFunc, error) {
	suite, pass, err := engineWorkload(name, seed)
	if err != nil {
		return "", nil, fmt.Errorf("%s suite run: %w", name, err)
	}
	exact, err := pass(newEngineRunner(seed, true), plainSpecs{})
	if err != nil {
		return "", nil, fmt.Errorf("%s ExactSim replay: %w", name, err)
	}
	if exact != suite {
		return "", nil, fmt.Errorf("%s: ExactSim replay digest %s differs from the suite's %s", name, exact, suite)
	}
	ref, err := loadReference()
	if err != nil {
		return "", nil, err
	}
	committed := map[string]string{"paper": ref.Paper, "fleet": ref.Fleet}[name]
	if seed == ref.Seed && suite != committed {
		return "", nil, fmt.Errorf("%s: digest %s differs from the committed %s", name, suite, committed)
	}
	return suite, pass, nil
}

// startProbe runs the engine workloads' set-up in a fresh process: program
// start-up (package initialization) plus sessionStart. It is what a user
// of unimem-bench pays before the first run of a new process.
func startProbe(name string, seed uint64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10), "--setup-probe").CombinedOutput()
	if err != nil {
		return fmt.Errorf("set-up probe: %v: %s", err, out)
	}
	return nil
}

// sessionStart is the engine workloads' in-process set-up: a fresh engine
// and run cache, the platform calibration of every machine the pass runs
// Unimem on, and the workload inputs.
func sessionStart(name string, seed uint64) {
	r := newEngineRunner(seed, false)
	if name == "paper" {
		for _, m := range paperPlatforms() {
			r.calibration(m)
		}
		workloads.EvalSuite("C", ranks)
		return
	}
	for _, m := range fleetPlatforms() {
		r.calibration(m)
	}
}

// setupReps is the number of set-up probes per run. A probe takes a few
// milliseconds, most of it process start, whose time varies from probe to
// probe; the median of many is steady.
const setupReps = 41

// measureSetup runs set-up setupReps times and returns the median seconds.
func measureSetup(f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return p50(xs), nil
}

func runEngine(name string, seed uint64, dur time.Duration, traced bool) (*report, error) {
	want, pass, err := referenceDigest(name, seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if traced {
		return rep, tracedEngine(rep, pass, want, seed, dur)
	}
	// The reference runs left a large heap, and maybe a GC cycle, behind:
	// collect it and return it to the OS, so that neither competes with the
	// probes nor with the passes, and the peak is the passes'.
	debug.FreeOSMemory()
	setup, err := measureSetup(func() error { return startProbe(name, seed) })
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup, "s")

	var passS, cpuS, allocMB, reqMS, execMS, hitMS []float64
	var requests int
	if err := resetPeakRSS(os.Getpid()); err != nil {
		return nil, err
	}
	for start := time.Now(); rep.Attempted == 0 || time.Since(start) < dur; {
		r := newEngineRunner(seed, false)
		m0, c0, t0 := readMem(), cpuTime(), time.Now()
		got, err := pass(r, plainSpecs{})
		wall, c1, m1 := time.Since(t0), cpuTime(), readMem()
		rep.Attempted++
		if err != nil {
			rep.fail("pass %d: %v", rep.Attempted, err)
			continue
		}
		if got != want {
			rep.fail("pass %d: digest %s, want %s", rep.Attempted, got, want)
			continue
		}
		passS = append(passS, wall.Seconds())
		cpuS = append(cpuS, (c1 - c0).Seconds())
		allocMB = append(allocMB, float64(m1.alloc-m0.alloc)/(1<<20))
		requests = len(r.reqs)
		for _, q := range r.reqs {
			reqMS = append(reqMS, ms(q.d))
			if q.hit {
				hitMS = append(hitMS, ms(q.d))
			} else {
				execMS = append(execMS, ms(q.d))
			}
		}
		// The pass leaves a GC cycle running; reads are timed after it.
		runtime.GC()
		reread, err := r.rereadCache()
		if err != nil {
			rep.fail("pass %d: cache re-read: %v", rep.Attempted, err)
			continue
		}
		for _, d := range reread {
			hitMS = append(hitMS, ms(d))
		}
	}
	peak, err := peakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", peak, "MB")
	if len(passS) == 0 {
		return rep, nil
	}
	passTail, passQ := tail(passS)
	reqTail, reqQ := tail(reqMS)
	rep.set("pass_s_p50", p50(passS), "s")
	rep.set("pass_s_tail", passTail, "s")
	rep.set("cpu_s_per_pass", p50(cpuS), "s")
	rep.set("alloc_mb_per_pass", p50(allocMB), "MB")
	rep.set("req_ms_p50", p50(reqMS), "ms")
	rep.set("req_ms_tail", reqTail, "ms")
	rep.set("exec_ms_p50", p50(execMS), "ms")
	rep.set("hit_ms_p50", p50(hitMS), "ms")
	rep.set("max_rps", float64(requests)/p50(passS), "req/s")
	rep.note("%d passes (pass_s_tail = %s); %d requests per pass (req_ms_tail = %s of %d)",
		len(passS), passQ, requests, reqQ, len(reqMS))
	rep.note("%d executed and %d cache-hit samples; hits include a re-read of each pass's cached runs",
		len(execMS), len(hitMS))
	rep.note("max_rps: requests per second of the median pass (closed loop, one worker)")
	rep.note("fail_frac %g (%d of %d passes)", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	return rep, nil
}

// tracedEngine alternates untraced and traced passes and reports the
// traced passes' per-layer totals as means per pass.
func tracedEngine(rep *report, pass passFunc, want string, seed uint64, dur time.Duration) error {
	var untracedS, tracedS, gcs, pauseMS []float64
	var sum layers
	var hits, misses int64
	n := 0
	for start := time.Now(); rep.Attempted == 0 || time.Since(start) < dur; {
		u := newEngineRunner(seed, false)
		u.keep = true
		m0, t0 := readMem(), time.Now()
		got, err := pass(u, plainSpecs{})
		wall, m1 := time.Since(t0), readMem()
		rep.Attempted++
		if err != nil || got != want {
			rep.fail("untraced pass %d: digest %s, want %s, err %v", rep.Attempted, got, want, err)
			continue
		}
		tr := newTracedRunner(seed, u.outs)
		t1 := time.Now()
		got, err = pass(tr, tracedSpecs{tr.l})
		twall := time.Since(t1)
		rep.Attempted++
		if err == nil && tr.next != len(u.outs) {
			err = fmt.Errorf("traced pass issued %d jobs, untraced %d", tr.next, len(u.outs))
		}
		if err != nil || got != want {
			rep.fail("traced pass %d: digest %s, want %s, err %v", rep.Attempted, got, want, err)
			continue
		}
		untracedS = append(untracedS, wall.Seconds())
		tracedS = append(tracedS, twall.Seconds())
		gcs = append(gcs, float64(m1.gcs-m0.gcs))
		pauseMS = append(pauseMS, float64(m1.pauseNS-m0.pauseNS)/1e6)
		st := u.eng.Stats()
		hits, misses = st.Hits, st.Misses
		sum.add(tr.l)
		n++
	}
	if n == 0 {
		return nil
	}
	setLayers(rep, &sum, n)
	rep.set("exp.cache_hits", float64(hits), "count")
	rep.set("exp.cache_misses", float64(misses), "count")
	rep.set("exp.cache_hit_frac", float64(hits)/float64(hits+misses), "ratio")
	rep.set("go.gc_cycles", p50(gcs), "count")
	rep.set("go.gc_pause_ms", p50(pauseMS), "ms")
	rep.set("trace.overhead_frac", p50(tracedS)/p50(untracedS)-1, "ratio")
	rep.set("serve.server_ms_p50", 0, "ms")
	rep.set("serve.queued_max", 0, "count")
	rep.set("loadgen.late_ms_max", 0, "ms")
	rep.set("loadgen.backlog_max", 0, "count")
	rep.note("%d untraced/traced pass pairs; untraced pass p50 %.3f s, traced %.3f s", n, p50(untracedS), p50(tracedS))
	return nil
}

// add accumulates o into l.
func (l *layers) add(o *layers) {
	l.generate += o.generate
	l.compile += o.compile
	l.compileBytes += o.compileBytes
	l.calibrate += o.calibrate
	l.setup += o.setup
	l.begin += o.begin
	l.end += o.end
	l.decide += o.decide
	l.setupBytes += o.setupBytes
	l.loop += o.loop
	l.runWall += o.runWall
	l.xmemProfile += o.xmemProfile
	l.decisions += o.decisions
	l.tiered += o.tiered
	l.runs += o.runs
	l.migrations += o.migrations
	l.migratedBytes += o.migratedBytes
	l.simIters += o.simIters
	l.skipIters += o.skipIters
	l.ffs += o.ffs
	l.events += o.events
}

// setLayers reports the simulation layers' totals as means over n passes.
func setLayers(rep *report, l *layers, n int) {
	per := func(d time.Duration) float64 { return ms(d) / float64(n) }
	cnt := func(x int64) float64 { return float64(x) / float64(n) }
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) / float64(n) }
	harness := l.runWall - l.setup - l.begin - l.end - l.loop
	rep.set("scenario.generate_ms", per(l.generate), "ms")
	rep.set("scenario.compile_ms", per(l.compile), "ms")
	rep.set("scenario.compile_mb", mb(l.compileBytes), "MB")
	rep.set("model.calibrate_ms", per(l.calibrate), "ms")
	rep.set("memsys.setup_ms", per(l.setup), "ms")
	rep.set("memsys.setup_mb", mb(l.setupBytes), "MB")
	rep.set("core.phase_begin_ms", per(l.begin), "ms")
	rep.set("core.phase_end_ms", per(l.end), "ms")
	rep.set("core.decide_ms", per(l.decide), "ms")
	rep.set("core.decisions", cnt(int64(l.decisions)), "count")
	rep.set("core.tiered_decisions", cnt(int64(l.tiered)), "count")
	rep.set("mover.migrations", cnt(int64(l.migrations)), "count")
	rep.set("mover.migrated_mb", float64(l.migratedBytes)/(1<<20)/float64(n), "MB")
	rep.set("xmem.profile_ms", per(l.xmemProfile), "ms")
	rep.set("app.runs", cnt(int64(l.runs)), "count")
	rep.set("app.harness_ms", per(harness), "ms")
	rep.set("mpisim.events", cnt(l.events), "count")
	ns := 0.0
	if l.events > 0 {
		ns = float64(harness) / float64(l.events)
	}
	rep.set("mpisim.ns_per_event", ns, "ns")
	skip := 0.0
	if it := l.simIters + l.skipIters; it > 0 {
		skip = float64(l.skipIters) / float64(it)
	}
	rep.set("app.fastpath_skip_frac", skip, "ratio")
	rep.set("app.fastforwards", cnt(l.ffs), "count")
}
