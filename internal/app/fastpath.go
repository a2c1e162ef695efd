package app

import (
	"sync/atomic"

	"unimem/internal/counters"
	"unimem/internal/machine"
	"unimem/internal/mpisim"
	"unimem/internal/obs"
	"unimem/internal/phase"
	"unimem/internal/workloads"
)

// This file is the harness half of the steady-state fast path: per-rank
// phase-outcome memoization (content x placement x machine keys into
// phase.Memo) and steady-state fast-forward. When every rank votes — in
// lockstep, through the simulator's zero-cost Poll rendezvous — that its
// manager is quiescent, its phase keys have been stable for K iterations
// and its last two iteration clock deltas are equal, and all ranks'
// deltas agree, the remaining iterations of the stable window (bounded
// by a rank-independent forward scan over workload content keys) are
// skipped: clocks, CommNS, per-phase means and manager bookkeeping are
// advanced in one step by the measured per-iteration deltas (no cost
// model is evaluated). Soundness: at a unanimous iteration
// boundary every inbox is empty and the run heap is quiescent, so with
// equal per-rank advances the relative clock offsets — the only
// cross-rank state — are preserved, and a skipped iteration would have
// replayed the previous one exactly, event for event.

// Fast-path engagement thresholds: polls begin once enough iterations
// have completed to compare two consecutive clock deltas, and a window
// counts as stable once every phase position has re-presented the same
// key for this many consecutive iterations.
const (
	fastPathMinIter     = 3
	fastPathStableIters = 3
)

// FastPather is the optional Manager extension the steady-state fast path
// requires: a manager that can certify quiescence and adjust its
// bookkeeping when the harness fast-forwards iterations. Managers
// that do not implement it run exact simulation unconditionally.
type FastPather interface {
	// SteadyState reports that the manager will not change placement,
	// charge variable overhead, or toggle profiling as long as upcoming
	// iterations repeat the current one.
	SteadyState() bool
	// FastForward advances the manager's iteration bookkeeping across n
	// skipped iterations, replaying any constant per-iteration overhead
	// accounting the simulated path would have recorded.
	FastForward(n int)
}

// FastPathStats summarizes the steady-state fast path's work in one run.
// Memo counters aggregate across all ranks; the iteration counters are
// rank 0's view (skips are unanimous, so every rank's counts agree).
// All zeros when the fast path was disabled or never engaged.
type FastPathStats struct {
	MemoHits       int64 `json:"memo_hits"`
	MemoMisses     int64 `json:"memo_misses"`
	SimulatedIters int64 `json:"simulated_iters"`
	// AnalyticIters counts fast-forwarded iterations; the name is kept
	// for the analytic_iters JSON field and the /metrics mode label.
	AnalyticIters int64 `json:"analytic_iters"`
	FastForwards  int64 `json:"fastforwards"`
}

// add accumulates o into s; rank coroutines flush concurrently at rank
// end, so the adds are atomic. Safe on a nil receiver.
func (s *FastPathStats) add(o FastPathStats) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.MemoHits, o.MemoHits)
	atomic.AddInt64(&s.MemoMisses, o.MemoMisses)
	atomic.AddInt64(&s.SimulatedIters, o.SimulatedIters)
	atomic.AddInt64(&s.AnalyticIters, o.AnalyticIters)
	atomic.AddInt64(&s.FastForwards, o.FastForwards)
}

// fpTotals accumulates process-wide fast-path totals across every run,
// the monotonic source the serve layer bridges onto /metrics (mirroring
// mpisim's event-core totals).
var fpTotals FastPathStats

// ReadFastPathTotals returns a snapshot of the process-wide fast-path
// totals.
func ReadFastPathTotals() FastPathStats {
	return FastPathStats{
		MemoHits:       atomic.LoadInt64(&fpTotals.MemoHits),
		MemoMisses:     atomic.LoadInt64(&fpTotals.MemoMisses),
		SimulatedIters: atomic.LoadInt64(&fpTotals.SimulatedIters),
		AnalyticIters:  atomic.LoadInt64(&fpTotals.AnalyticIters),
		FastForwards:   atomic.LoadInt64(&fpTotals.FastForwards),
	}
}

// fastPath is one rank's fast-path tracker. Nil when the run opted out
// (Options.ExactSim) or the manager is not a FastPather — both
// rank-independent facts, so either every rank tracks or none does and
// the Poll counts stay matched.
type fastPath struct {
	rc   *RankCtx
	mgr  FastPather
	memo *phase.Memo
	// base is the key digest pre-seeded with the machine fingerprint.
	base phase.Digest

	// Last simulated iteration's per-position content keys and measured
	// durations — the extrapolation template for skipped iterations.
	lastContent []phase.Key
	lastDur     []float64
	// Rank 0 only: the run's per-phase accumulators, extrapolated by
	// repeated addition so a skipped window contributes the exact float
	// sums simulation would have.
	phaseNS    []float64
	phaseCount []int64

	iterStartClock int64
	iterStartComm  int64
	prevIterDelta  int64
	prevCommDelta  int64
	lastIterDelta  int64
	lastCommDelta  int64
	// simIters counts simulated iterations; steadyIters counts
	// consecutive iteration starts at which the manager was already
	// quiescent (the last simulated iteration's delta is only a valid
	// template if no migration or profile charge landed inside it).
	simIters    int
	steadyIters int

	stats FastPathStats
}

// newFastPath returns the rank's tracker, or nil when the fast path is
// off for this run.
func newFastPath(rc *RankCtx, mgr Manager, opts *Options, phaseNS []float64, phaseCount []int64) *fastPath {
	if opts.ExactSim {
		return nil
	}
	fpm, ok := mgr.(FastPather)
	if !ok {
		return nil
	}
	n := len(rc.W.Phases)
	fp := &fastPath{
		rc:          rc,
		mgr:         fpm,
		memo:        phase.NewMemo(),
		base:        machineDigest(rc.Mach),
		lastContent: make([]phase.Key, n),
		lastDur:     make([]float64, n),
	}
	if rc.Rank == 0 {
		fp.phaseNS, fp.phaseCount = phaseNS, phaseCount
	}
	return fp
}

// machineDigest folds the platform description once per rank; it seeds
// every phase key so memoized outcomes are canonical per (content,
// placement, machine) even though a single run never mixes machines.
func machineDigest(m *machine.Machine) phase.Digest {
	d := phase.NewDigest().String(m.Name).Int(len(m.Tiers))
	for _, t := range m.Tiers {
		d = d.String(t.Name).
			Float64(t.ReadLatNS).
			Float64(t.WriteLatNS).
			Float64(t.BandwidthBps).
			Int64(t.CapacityBytes)
	}
	return d.Float64(m.CopyBandwidthBps).
		Float64(m.CPUFreqHz).
		Float64(m.FlopsPerSec).
		Int64(m.SampleIntervalCycles).
		Float64(m.NetLatencyNS).
		Float64(m.NetBandwidthBps)
}

// beginIter snapshots the rank's clocks at a simulated iteration's start
// and advances the manager-quiescence streak.
func (fp *fastPath) beginIter(c *mpisim.Comm) {
	fp.iterStartClock = c.Clock()
	fp.iterStartComm = c.CommNS
	if fp.mgr.SteadyState() {
		fp.steadyIters++
	} else {
		fp.steadyIters = 0
	}
}

// observePhase keys one simulated phase execution into the memo: the
// workload content key folded with the placement-expanded traffic (chunk
// identity, accesses and tier-priced service time) over the machine
// fingerprint, valued by the measured duration.
func (fp *fastPath) observePhase(pi int, ph *workloads.Phase, iter int, durNS float64, traffic []counters.ChunkTraffic) {
	ck := ph.ContentKey(iter)
	d := fp.base.Int(pi).Uint64(uint64(ck))
	for _, t := range traffic {
		d = d.String(t.Chunk).
			Int64(t.Accesses).
			Float64(t.ServiceNS).
			Float64(t.ReadFrac).
			Int(int(t.Pattern))
	}
	fp.memo.Observe(pi, d.Key(), durNS)
	fp.lastContent[pi] = ck
	fp.lastDur[pi] = durNS
}

// endIter closes a simulated iteration, rolling the delta history.
func (fp *fastPath) endIter(c *mpisim.Comm) {
	fp.prevIterDelta, fp.prevCommDelta = fp.lastIterDelta, fp.lastCommDelta
	fp.lastIterDelta = c.Clock() - fp.iterStartClock
	fp.lastCommDelta = c.CommNS - fp.iterStartComm
	fp.simIters++
	fp.stats.SimulatedIters++
}

// steady is this rank's fast-forward vote: the manager has been
// quiescent since before the template iteration began, every phase
// position has presented the same (content x placement) key for K
// consecutive iterations, and the last two iteration deltas are equal —
// the rank's execution has provably settled into a fixed point.
func (fp *fastPath) steady() bool {
	return fp.simIters >= fastPathMinIter &&
		fp.steadyIters >= 2 &&
		fp.mgr.SteadyState() &&
		fp.memo.StableIters() >= fastPathStableIters &&
		fp.lastIterDelta > 0 &&
		fp.lastIterDelta == fp.prevIterDelta &&
		fp.lastCommDelta == fp.prevCommDelta
}

// scan returns how many consecutive iterations starting at iter present
// exactly the last simulated iteration's content. It reads only
// rank-independent workload ground truth, so every rank computes the
// same bound without further coordination. Workloads that declare their
// content epochs get an O(#epochs) bound; otherwise every candidate
// iteration's keys are verified individually.
func (fp *fastPath) scan(iter int) int {
	w := fp.rc.W
	if w.ContentEpochs != nil {
		// The window must match the template (the last simulated
		// iteration): verify iter itself, then extend to the declared
		// window's end — the first epoch boundary past iter.
		for pi := range w.Phases {
			if w.Phases[pi].ContentKey(iter) != fp.lastContent[pi] {
				return 0
			}
		}
		end := w.Iterations
		for _, e := range w.ContentEpochs {
			if e > iter {
				if e < end {
					end = e
				}
				break
			}
		}
		return end - iter
	}
	n := 0
	for j := iter; j < w.Iterations; j++ {
		for pi := range w.Phases {
			if w.Phases[pi].ContentKey(j) != fp.lastContent[pi] {
				return n
			}
		}
		n++
	}
	return n
}

// trySkip runs the lockstep skip protocol at an iteration start: poll
// all ranks (vote = this rank's steady state, payload = its last
// iteration delta, so unanimity implies cross-rank delta agreement), and
// on success fast-forward through the scanned stable window. Returns the
// number of iterations skipped (0: simulate this one). Every rank calls
// trySkip at the same iteration starts and returns the same value.
func (fp *fastPath) trySkip(c *mpisim.Comm, iter int) int {
	if !c.Poll(fp.steady(), fp.lastIterDelta) {
		return 0
	}
	n := fp.scan(iter)
	if n == 0 {
		return 0
	}
	entryClock := c.Clock()
	c.Advance(int64(n) * fp.lastIterDelta)
	c.CommNS += int64(n) * fp.lastCommDelta
	if fp.phaseNS != nil {
		for pi, d := range fp.lastDur {
			for k := 0; k < n; k++ {
				fp.phaseNS[pi] += d
			}
			fp.phaseCount[pi] += int64(n)
		}
	}
	fp.mgr.FastForward(n)
	fp.stats.AnalyticIters += int64(n)
	fp.stats.FastForwards++
	if fp.rc.Explain != nil {
		fp.rc.Explain.AddFastForward(iter, iter+n, c.Clock()-entryClock)
	}
	if fp.rc.Trace != nil {
		fp.rc.Trace.Span(obs.Virtual, fp.rc.Rank, "fastforward", "harness", entryClock, c.Clock(),
			map[string]any{"entry_iter": iter, "exit_iter": iter + n, "iters": n})
	}
	return n
}

// flush publishes the rank's counters into the caller's sink and the
// process totals. Memo counters flow from every rank; the iteration
// counters only from rank 0, whose view all ranks share.
func (fp *fastPath) flush(sink *FastPathStats) {
	out := FastPathStats{MemoHits: fp.memo.Hits(), MemoMisses: fp.memo.Misses()}
	if fp.rc.Rank == 0 {
		out.SimulatedIters = fp.stats.SimulatedIters
		out.AnalyticIters = fp.stats.AnalyticIters
		out.FastForwards = fp.stats.FastForwards
	}
	sink.add(out)
	fpTotals.add(out)
}
