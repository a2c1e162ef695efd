// Package core implements the Unimem runtime — the paper's primary
// contribution. One Runtime instance manages one MPI rank's data placement
// through the workflow of §3.1 (Fig. 8):
//
//  1. Phase profiling: during the first iteration of the main computation
//     loop, sampled performance counters capture per-object main-memory
//     traffic for every phase (package counters).
//  2. Performance modeling: at the end of the first iteration, Eq. 1-4
//     classify each object's sensitivity and price the benefit and cost of
//     moving it (package model).
//  3. Placement decision and enforcement: a 0-1 knapsack per phase, solved
//     by phase-local and cross-phase global search, picks the DRAM-resident
//     sets (package placement); from the second iteration a helper thread
//     proactively migrates objects ahead of the phases that need them
//     (package mover).
//
// The optimizations of §3.2 are all present and individually switchable
// for the Fig. 11 ablation: initial data placement from static reference
// hints, large-object partitioning, the local/global search pair, and the
// >10% variation monitor that triggers re-profiling.
package core

import (
	"sort"

	"unimem/internal/app"
	"unimem/internal/counters"
	"unimem/internal/machine"
	"unimem/internal/memsys"
	"unimem/internal/model"
	"unimem/internal/mover"
	"unimem/internal/obs"
	"unimem/internal/phase"
	"unimem/internal/placement"
)

// Config selects Unimem features and model parameters.
type Config struct {
	// EnableGlobal/EnableLocal enable the two placement searches.
	EnableGlobal bool
	EnableLocal  bool
	// EnablePartition enables large-object chunking (§3.2).
	EnablePartition bool
	// EnableInitial enables static-hint initial data placement (§3.2).
	EnableInitial bool

	// Counters configures the emulated sampling infrastructure.
	Counters counters.Config
	// Calibration carries the platform's one-time CF/BW_peak measurement;
	// zero value means "calibrate lazily at Init" (the paper computes it
	// once per platform and reuses it).
	Calibration model.Calibration

	// VariationThreshold is the re-profiling trigger (paper: 0.10).
	VariationThreshold float64
	// PartitionMinBytes: objects at least this large are chunked when
	// partitionable; 0 means 90% of DRAM capacity (an object that almost
	// fills or exceeds DRAM cannot usefully move whole).
	PartitionMinBytes int64
	// ChunkSize is the partition granularity (0: memsys default, 32 MiB).
	ChunkSize int64
	// AmortizeIters spreads adoption cost in the global search score.
	AmortizeIters int
	// Seed derives all per-rank sampling streams.
	Seed uint64

	// Ablation knobs for the model refinements this reproduction adds on
	// top of the paper's formulas (see EXPERIMENTS.md "Reproduction
	// notes"); all default off, i.e. refinements active.
	LiteralEq3     bool // price Eq. 3 without the MLP correction
	NaivePredictor bool // score plans without the helper-thread timeline
	NoHysteresis   bool // drop the local search's recurrence charge
}

// DefaultConfig returns the full Unimem configuration (all techniques on).
func DefaultConfig() Config {
	return Config{
		EnableGlobal:       true,
		EnableLocal:        true,
		EnablePartition:    true,
		EnableInitial:      true,
		Counters:           counters.Default(),
		VariationThreshold: 0.10,
		AmortizeIters:      10,
		Seed:               0x0C0FFEE,
	}
}

// Runtime is the per-rank Unimem instance, implementing app.Manager. The
// paper's Table 2 API maps onto the Manager lifecycle: Setup performs
// unimem_init and the unimem_malloc calls, LoopStart/LoopEnd are
// unimem_start/unimem_end, and heap teardown (unimem_free) happens when
// the harness drops the heap.
type Runtime struct {
	cfg  Config
	rank int

	mach    *machine.Machine
	heap    *memsys.Heap
	sampler *counters.Sampler
	mov     *mover.Mover
	reg     *phase.Registry
	mcfg    model.Config

	profiling bool
	// reprofileNext schedules a full-iteration re-profile (variation >10%).
	reprofileNext bool

	plan *placement.Plan
	// tierPlan is the multiple-choice-knapsack decision taken on machines
	// with more than two tiers (nil on two-tier machines, whose decisions
	// go through the paper's exact two-search pipeline above).
	tierPlan *placement.TieredPlan
	// pendingSeq[phase index] is the latest mover ticket that must complete
	// before that phase executes.
	pendingSeq map[int]uint64
	// oneShot holds adoption migrations deferred to their dependence-
	// derived trigger phases (so they overlap like scheduled moves do);
	// drained the first time each trigger phase begins.
	oneShot map[int][]placement.Move
	// oneShotTiered is oneShot's N-tier counterpart: deferred promotions
	// of the multi-tier adoption.
	oneShotTiered map[int][]tieredMove
	// decisionIter is the completed-iteration count when the latest
	// decision was taken; the variation monitor stays quiet for two
	// iterations afterwards while migrations settle and the baseline
	// re-forms.
	decisionIter int

	chunkByName map[string]*memsys.Chunk
	chunkSize   map[string]int64

	overheadNS float64
	// Decisions counts placement decisions taken (1 + re-profiles).
	Decisions int
	// ReprofileIters records the completed-iteration counts at which the
	// variation monitor (>10% drift, §3.2) scheduled a re-profile — the
	// adaptation timeline under drifting workloads, for inspection
	// tooling and the scenario-fleet diagnostics.
	ReprofileIters []int
	// Candidates holds every plan the latest decision considered (for
	// inspection tooling).
	Candidates []*placement.Plan

	// expl receives this rank's decision attribution (nil when disabled:
	// every capture site below guards on it, so the disabled path costs
	// one pointer check).
	expl *obs.Explain
	// adoptTrigger classifies the current decision's one-time moves for
	// the migration audit trail: "adoption" for the first decision,
	// "reprofile" for re-decisions after drift.
	adoptTrigger string
	// moveMeta joins mover tickets to their enqueue-time audit metadata
	// (trigger kind, Eq. 4 predicted copy time); entries are consumed by
	// the completion observer. Enqueues and completions both happen on
	// the main rank goroutine (completions apply at Drain/Sync/Stop), so
	// the map needs no lock.
	moveMeta map[uint64]moveMeta
}

// moveMeta is the enqueue-time metadata of one audited migration.
type moveMeta struct {
	trigger     string
	predictedNS float64
}

// NewRuntime returns a Unimem runtime for one rank.
func NewRuntime(rank int, cfg Config) *Runtime {
	if cfg.VariationThreshold == 0 {
		cfg.VariationThreshold = 0.10
	}
	if cfg.AmortizeIters == 0 {
		cfg.AmortizeIters = 10
	}
	return &Runtime{
		cfg:           cfg,
		rank:          rank,
		pendingSeq:    make(map[int]uint64),
		oneShot:       make(map[int][]placement.Move),
		oneShotTiered: make(map[int][]tieredMove),
		chunkByName:   make(map[string]*memsys.Chunk),
		chunkSize:     make(map[string]int64),
		moveMeta:      make(map[uint64]moveMeta),
	}
}

// Factory adapts NewRuntime to app.ManagerFactory.
func Factory(cfg Config) app.ManagerFactory {
	return func(rank int) app.Manager { return NewRuntime(rank, cfg) }
}

// Name implements app.Manager.
func (r *Runtime) Name() string { return "unimem" }

// Rank returns the MPI rank this runtime instance manages.
func (r *Runtime) Rank() int { return r.rank }

// DRAMResidents returns the names of chunks currently resident in DRAM,
// sorted; an introspection hook for tooling and tests.
func (r *Runtime) DRAMResidents() []string {
	var out []string
	for name, in := range r.heap.ResidencySnapshot() {
		if in {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Plan exposes the current placement plan (nil before the first decision,
// and nil on machines with more than two tiers — see TierPlan); used by
// the inspection tooling and tests.
func (r *Runtime) Plan() *placement.Plan { return r.plan }

// TierPlan exposes the multiple-choice-knapsack assignment taken on
// machines with more than two tiers (nil before the first decision and on
// two-tier machines).
func (r *Runtime) TierPlan() *placement.TieredPlan { return r.tierPlan }

// TierResidencyBytes returns this rank's current resident bytes per tier.
func (r *Runtime) TierResidencyBytes() []int64 { return r.heap.TierResidencyBytes() }

// MoverStats exposes the helper thread's accounting.
func (r *Runtime) MoverStats() mover.Stats { return r.mov.Stats() }

// Setup implements app.Manager: unimem_init + the unimem_malloc calls,
// applying the partitioning rule and initial data placement.
func (r *Runtime) Setup(ctx *app.RankCtx) error {
	r.mach = ctx.Mach
	r.heap = ctx.Heap
	r.sampler = counters.NewSampler(ctx.Mach, r.cfg.Counters, r.cfg.Seed^uint64(r.rank)*0x9E37)
	r.mov = mover.New(ctx.Heap)
	r.expl = ctx.Explain
	if tr, ex := ctx.Trace, ctx.Explain; tr != nil || ex != nil {
		rank := r.rank
		r.mov.SetObserver(func(c mover.Completion) {
			if ex != nil {
				meta := r.moveMeta[c.Req.Seq()]
				delete(r.moveMeta, c.Req.Seq())
				rec := obs.MigrationRecord{
					Chunk: c.Req.Chunk.Name(), From: c.From.String(), To: c.Req.To.String(),
					Bytes: c.BytesMoved, Trigger: meta.trigger,
					StartNS: c.StartNS, EndNS: c.EndNS,
					PredictedNS: meta.predictedNS, RealizedNS: c.EndNS - c.StartNS,
				}
				if c.Err != nil {
					rec.Failed = true
					rec.Error = c.Err.Error()
				}
				ex.AddMigration(rec)
			}
			if c.Err != nil {
				tr.Instant(obs.Virtual, rank, "migration failed", "mover", c.StartNS,
					map[string]any{"chunk": c.Req.Chunk.Name(), "error": c.Err.Error()})
				return
			}
			tr.Span(obs.Virtual, rank, "migrate "+c.Req.Chunk.Name(), "mover", c.StartNS, c.EndNS,
				map[string]any{"from": c.From.String(), "to": c.Req.To.String(), "bytes": c.BytesMoved})
		})
	}
	r.mov.Start()
	r.reg = phase.NewRegistry()

	if r.cfg.Calibration == (model.Calibration{}) {
		r.cfg.Calibration = model.Calibrate(ctx.Mach, r.cfg.Counters, r.cfg.Seed^0xCA11B)
	}
	r.mcfg = model.DefaultThresholds()
	r.mcfg.Apply(r.cfg.Calibration)
	r.mcfg.LiteralEq3 = r.cfg.LiteralEq3

	dramCap := ctx.Mach.Fastest().CapacityBytes
	partitionMin := r.cfg.PartitionMinBytes
	if partitionMin == 0 {
		partitionMin = dramCap * 9 / 10
	}

	// Initial data placement (§3.2): rank objects by their static
	// reference-count hint and fill the fast tiers greedily, fastest
	// first. Objects without a hint (count unknown before the loop) stay
	// in the slowest tier. On two-tier machines this is exactly the
	// paper's DRAM fill.
	slowest := ctx.Mach.SlowestIdx()
	initialTier := make(map[string]machine.TierKind)
	if r.cfg.EnableInitial {
		order := make([]int, 0, len(ctx.W.Objects))
		for i, o := range ctx.W.Objects {
			if o.RefHint > 0 {
				order = append(order, i)
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			return ctx.W.Objects[order[a]].RefHint > ctx.W.Objects[order[b]].RefHint
		})
		remaining := make([]int64, int(slowest))
		for t := range remaining {
			remaining[t] = ctx.Mach.Tier(machine.TierKind(t)).CapacityBytes
		}
		for _, i := range order {
			o := ctx.W.Objects[i]
			for t := range remaining {
				if o.Size <= remaining[t] {
					initialTier[o.Name] = machine.TierKind(t)
					remaining[t] -= o.Size
					break
				}
			}
		}
	}

	for _, os := range ctx.W.Objects {
		opts := memsys.AllocOptions{
			InitialTier: slowest,
			RefHint:     os.RefHint,
		}
		if t, ok := initialTier[os.Name]; ok {
			opts.InitialTier = t
		}
		if r.cfg.EnablePartition && os.Partitionable && os.Size >= partitionMin {
			opts.Partitionable = true
			opts.ChunkSize = r.cfg.ChunkSize
		}
		obj, err := ctx.Heap.Alloc(os.Name, os.Size, opts)
		if err != nil {
			return err
		}
		for _, c := range obj.Chunks {
			r.chunkByName[c.Name()] = c
			r.chunkSize[c.Name()] = c.Size
		}
	}
	return nil
}

// LoopStart implements app.Manager: unimem_start — begin profiling the
// first iteration of the main computation loop.
func (r *Runtime) LoopStart(ctx *app.RankCtx) {
	r.sampler.Enable()
	r.profiling = true
}

// PhaseBegin implements app.Manager: identify the phase (PMPI counter),
// take placement decisions at iteration boundaries, enqueue scheduled
// proactive migrations, and synchronize with the helper thread for moves
// this phase depends on.
func (r *Runtime) PhaseBegin(ctx *app.RankCtx, name string, kind phase.Kind, mpiOp string) {
	// Apply every migration enqueued before this boundary to the heap now,
	// so placement visibility is a deterministic function of the virtual
	// schedule (enqueue at phase p => tier change observed from phase p+1)
	// rather than of goroutine scheduling. Costs no virtual time; exposed
	// stalls are still charged at the Sync below.
	r.mov.Drain()

	p, newIter := r.reg.Begin(name, kind, mpiOp)

	if newIter && r.reg.Sealed() {
		if r.profiling {
			// A full profiled iteration just completed (the first, or a
			// re-profile): model and decide.
			r.decide(ctx)
		} else if r.reprofileNext {
			r.reprofileNext = false
			r.sampler.Enable()
			r.profiling = true
		}
	}

	if (r.plan != nil || r.tierPlan != nil) && !r.profilingBlocksEnforcement() {
		r.enforceAt(ctx, p.ID)
	}

	// Queue-status check at the beginning of each phase (§3.3).
	if seq := r.pendingSeq[p.ID]; seq > 0 || r.plan != nil || r.tierPlan != nil {
		stall := r.mov.Sync(seq, ctx.Comm.Clock())
		delete(r.pendingSeq, p.ID)
		ctx.Comm.Advance(stall + mover.SyncCheckNS)
		r.overheadNS += mover.SyncCheckNS
	}
}

// profilingBlocksEnforcement reports whether enforcement should pause.
// Re-profiling runs concurrently with the existing plan (the paper keeps
// serving the old decision while collecting a fresh profile), so it never
// blocks; only the very first profile (no plan yet) executes unenforced.
func (r *Runtime) profilingBlocksEnforcement() bool {
	return r.plan == nil && r.tierPlan == nil
}

// enforceAt enqueues every scheduled move triggered at phase pid (plus any
// pending one-shot adoption moves), skipping chunks already in their
// desired tier.
func (r *Runtime) enforceAt(ctx *app.RankCtx, pid int) {
	if moves := r.oneShot[pid]; len(moves) > 0 {
		delete(r.oneShot, pid)
		for _, mv := range moves {
			r.enqueueMove(ctx, mv, r.adoptTrigger)
		}
	}
	if moves := r.oneShotTiered[pid]; len(moves) > 0 {
		delete(r.oneShotTiered, pid)
		for _, mv := range moves {
			r.enqueueTieredMove(ctx, mv, r.adoptTrigger)
		}
	}
	if r.plan == nil {
		return
	}
	for _, mv := range r.plan.Schedule {
		if mv.TriggerPhase != pid {
			continue
		}
		r.enqueueMove(ctx, mv, "steady-state")
	}
}

// tieredMove is one adoption move of the N-tier placement: migrate chunk
// to tier `to`, required complete before phase `target` (-1: no deadline).
type tieredMove struct {
	chunk  string
	to     machine.TierKind
	target int
}

// enqueueTieredMove posts a tiered adoption move to the helper thread,
// skipping chunks already in place. trigger classifies the move for the
// migration audit trail.
func (r *Runtime) enqueueTieredMove(ctx *app.RankCtx, mv tieredMove, trigger string) {
	c := r.chunkByName[mv.chunk]
	if c == nil {
		return
	}
	from := r.heap.TierOf(c)
	if from == mv.to {
		return
	}
	seq := r.mov.Enqueue(c, mv.to, ctx.Comm.Clock())
	if r.expl != nil {
		r.moveMeta[seq] = moveMeta{trigger: trigger,
			predictedNS: r.mach.CopyTimeBetweenNS(from, mv.to, c.Size)}
	}
	if mv.target >= 0 && seq > r.pendingSeq[mv.target] {
		r.pendingSeq[mv.target] = seq
	}
}

func (r *Runtime) enqueueMove(ctx *app.RankCtx, mv placement.Move, trigger string) {
	c := r.chunkByName[mv.Chunk]
	if c == nil {
		return
	}
	want := machine.NVM
	if mv.ToDRAM {
		want = machine.DRAM
	}
	from := r.heap.TierOf(c)
	if from == want {
		return
	}
	seq := r.mov.Enqueue(c, want, ctx.Comm.Clock())
	if r.expl != nil {
		r.moveMeta[seq] = moveMeta{trigger: trigger,
			predictedNS: r.mach.CopyTimeBetweenNS(from, want, c.Size)}
	}
	if mv.ToDRAM {
		if seq > r.pendingSeq[mv.TargetPhase] {
			r.pendingSeq[mv.TargetPhase] = seq
		}
	}
}

// PhaseEnd implements app.Manager: close the phase, sample its profile
// while profiling, and run the variation monitor afterwards.
func (r *Runtime) PhaseEnd(ctx *app.RankCtx, durNS float64, traffic []counters.ChunkTraffic) {
	p := r.reg.End(durNS)
	if r.profiling {
		ps := r.sampler.Sample(durNS, traffic)
		p.SetProfile(ps)
		ctx.Comm.Advance(int64(ps.OverheadNS))
		r.overheadNS += ps.OverheadNS
		return
	}
	// Variation monitor (§3.2): compare against the post-decision baseline.
	// Only computation phases are monitored — a communication phase's
	// duration is dominated by synchronization waits on other ranks, which
	// shift whenever any rank migrates and would trigger spurious
	// re-profiling. For two iterations after a decision the baseline keeps
	// re-forming: the plan's own migrations change phase durations, and
	// reacting to that would loop profiling forever.
	if p.Kind == phase.Comm {
		return
	}
	if r.reg.Iter() <= r.decisionIter+1 || p.DecisionNS == 0 {
		p.DecisionNS = durNS
		return
	}
	rel := (durNS - p.DecisionNS) / p.DecisionNS
	if rel < 0 {
		rel = -rel
	}
	if rel > r.cfg.VariationThreshold && !r.reprofileNext {
		r.reprofileNext = true
		r.ReprofileIters = append(r.ReprofileIters, r.reg.Iter())
		if ctx.Trace != nil {
			ctx.Trace.Instant(obs.Virtual, r.rank, "reprofile scheduled", "unimem",
				ctx.Comm.Clock(), map[string]any{"iter": r.reg.Iter(), "variation": rel})
		}
		r.expl.AddReprofile(obs.ReprofileRecord{
			Iter: r.reg.Iter(), Phase: p.Name,
			Variation: rel, Threshold: r.cfg.VariationThreshold,
		})
	}
}

// decide runs step 2 and 3 of the workflow: build model estimates from the
// profiled iteration, search placements, adopt the best plan, and enqueue
// adoption migrations. Machines with more than two tiers take the
// multiple-choice-knapsack path; two-tier machines run the paper's exact
// two-search pipeline.
func (r *Runtime) decide(ctx *app.RankCtx) {
	if ctx.Mach.NumTiers() > 2 {
		r.decideTiered(ctx)
		return
	}
	r.sampler.Disable()
	r.profiling = false
	r.Decisions++

	phases := r.reg.Phases()
	in := &placement.Input{
		DRAMCapacity:   ctx.Mach.Fastest().CapacityBytes,
		ChunkSize:      r.chunkSize,
		Phases:         make([]placement.PhaseData, len(phases)),
		Resident:       r.heap.ResidencySnapshot(),
		CopyTimeNS:     ctx.Mach.CopyTimeNS,
		OverlapNS:      r.reg.OverlapWindowNS,
		TriggerPhase:   r.reg.TriggerPhase,
		References:     r.references,
		AmortizeIters:  r.cfg.AmortizeIters,
		NaivePredictor: r.cfg.NaivePredictor,
		NoHysteresis:   r.cfg.NoHysteresis,
	}
	var modelOps int
	var terms [][]obs.ChunkTerm
	if r.expl != nil {
		terms = make([][]obs.ChunkTerm, len(phases))
	}
	for i, p := range phases {
		pd := placement.PhaseData{DurNS: p.ProfiledNS, Benefit: make(map[string]float64)}
		if p.Profile != nil {
			for _, s := range p.Profile.Objects {
				tier := machine.NVM
				if c := r.chunkByName[s.Chunk]; c != nil {
					tier = r.heap.TierOf(c)
				}
				est := r.mcfg.EstimateChunk(ctx.Mach, s, p.Profile, tier)
				if est.BenefitNS > 0 {
					pd.Benefit[s.Chunk] += est.BenefitNS
				}
				modelOps++
				if terms != nil {
					terms[i] = append(terms[i], obs.ChunkTerm{
						Chunk: s.Chunk, Sensitivity: est.Sens.String(),
						BWBps: est.BWBps, BenefitNS: est.BenefitNS,
					})
				}
			}
		}
		in.Phases[i] = pd
	}
	// A new decision supersedes any not-yet-triggered adoption moves from
	// the previous one; stale deferred moves would drag outdated chunks
	// back into DRAM.
	r.oneShot = make(map[int][]placement.Move)
	r.plan, r.Candidates = placement.DecideAll(in, r.cfg.EnableLocal, r.cfg.EnableGlobal)

	// Modeling cost: estimates plus the knapsack DP cells, charged to the
	// critical path (part of "pure runtime cost").
	capUnits := int(ctx.Mach.Fastest().CapacityBytes >> 20)
	modelNS := float64(modelOps)*200 + float64(capUnits*len(r.chunkSize))*20
	decideAt := ctx.Comm.Clock()
	ctx.Comm.Advance(int64(modelNS))
	r.overheadNS += modelNS
	if ctx.Trace != nil {
		ctx.Trace.Span(obs.Virtual, r.rank, "placement decision", "unimem", decideAt, ctx.Comm.Clock(),
			map[string]any{"solver": string(r.plan.Strategy), "model_ops": modelOps,
				"decision": r.Decisions, "adoption_moves": len(r.plan.Adoption)})
	}
	r.adoptTrigger = decisionTrigger(r.Decisions)
	if r.expl != nil {
		rec := obs.DecisionRecord{
			Decision: r.Decisions, Iter: r.reg.Iter(), Trigger: r.adoptTrigger,
			Solver: string(r.plan.Strategy), PredictedIterNS: r.plan.PredictedIterNS,
			OracleIterNS: placement.OracleStaticNS(in), ModelNS: modelNS,
		}
		for i, p := range phases {
			tb := obs.TermBreakdown{Phase: p.ID, Name: p.Name, Kind: p.Kind.String(), DurNS: p.ProfiledNS}
			for _, ct := range terms[i] {
				ct.Chosen = r.plan.Desired[i][ct.Chunk]
				if ct.Chosen {
					tb.BenefitNS += ct.BenefitNS
				}
				tb.Chunks = append(tb.Chunks, ct)
			}
			rec.Phases = append(rec.Phases, tb)
		}
		for _, p := range r.Candidates {
			rec.Alternatives = append(rec.Alternatives, obs.AlternativeRecord{
				Strategy: string(p.Strategy), PredictedIterNS: p.PredictedIterNS,
				DeltaNS: p.PredictedIterNS - r.plan.PredictedIterNS,
				Moves:   len(p.Adoption) + len(p.Schedule), Chosen: p == r.plan,
			})
		}
		r.expl.AddDecision(rec)
	}

	// Rebaseline the variation monitor: durations will shift under the new
	// placement.
	r.decisionIter = r.reg.Iter()
	for _, p := range phases {
		p.DecisionNS = 0
	}

	// Adoption: evictions go to the helper thread immediately (freeing
	// DRAM early is always safe); insertions are deferred to their
	// dependence-derived trigger phases so the copies overlap with the
	// enforcing iteration's execution (Fig. 5), arriving in time for the
	// first referencing phase of the iteration after.
	for _, mv := range r.plan.Adoption {
		if !mv.ToDRAM {
			r.enqueueMove(ctx, mv, r.adoptTrigger)
			continue
		}
		target := r.firstReferencing(mv.Chunk)
		trigger := r.reg.TriggerPhase(mv.Chunk, target)
		r.oneShot[trigger] = append(r.oneShot[trigger], placement.Move{
			Chunk: mv.Chunk, ToDRAM: true,
			TriggerPhase: trigger, TargetPhase: target,
		})
	}
}

// decideTiered is the N-tier placement decision: evaluate the Eq. 1-4
// models against every tier's spec (benefit relative to the slowest tier,
// movement cost on the tier graph's edges amortized over AmortizeIters
// iterations, mirroring the cross-phase global search), assign every chunk
// exactly one tier with the multiple-choice knapsack under per-tier
// capacities, and adopt the assignment: demotions free shared-tier space
// immediately, promotions are deferred to their dependence-derived trigger
// phases so the copies overlap with computation. The assignment is static
// until the variation monitor triggers a re-profile.
//
// Of the Config knobs, EnableGlobal/EnableLocal gate the decision as a
// whole (both off: keep everything where it is, like the two-tier "none"
// plan); the two-tier-specific ablations (NaivePredictor — there is no
// recurring-schedule timeline here — and NoHysteresis — no phase-local
// churn to damp) have no N-tier counterpart and are ignored.
func (r *Runtime) decideTiered(ctx *app.RankCtx) {
	r.sampler.Disable()
	r.profiling = false
	r.Decisions++

	m := ctx.Mach
	nTiers := m.NumTiers()
	slow := m.SlowestIdx()
	phases := r.reg.Phases()
	current := r.heap.TierSnapshot()

	if !r.cfg.EnableGlobal && !r.cfg.EnableLocal {
		// Placement disabled: adopt the current residency unchanged so
		// enforcement and the variation monitor behave like the two-tier
		// "none" plan.
		assign := make(map[string]int, len(current))
		for c, tk := range current {
			assign[c] = int(tk)
		}
		r.tierPlan = &placement.TieredPlan{Assign: assign, Solver: "none"}
		r.decisionIter = r.reg.Iter()
		for _, p := range phases {
			p.DecisionNS = 0
		}
		return
	}

	// Per-chunk per-tier benefit totals across the profiled iteration.
	benefit := make(map[string][]float64)
	var iterNS float64
	var modelOps int
	var terms [][]obs.ChunkTerm
	if r.expl != nil {
		terms = make([][]obs.ChunkTerm, len(phases))
	}
	for pi, p := range phases {
		iterNS += p.ProfiledNS
		if p.Profile == nil {
			continue
		}
		for _, s := range p.Profile.Objects {
			profTier := slow
			if tk, ok := current[s.Chunk]; ok {
				profTier = tk
			}
			b := benefit[s.Chunk]
			if b == nil {
				b = make([]float64, nTiers)
				benefit[s.Chunk] = b
			}
			for t := 0; t < nTiers-1; t++ {
				est := r.mcfg.EstimateChunkAt(m, s, p.Profile, profTier, slow, machine.TierKind(t))
				b[t] += est.BenefitNS
				modelOps++
				if terms != nil && t == 0 {
					// Attribution records the fastest-tier estimate: the
					// Eq. 1 classification is tier-independent, and the
					// fastest tier's Eq. 2/3 figure is the chunk's benefit
					// ceiling.
					terms[pi] = append(terms[pi], obs.ChunkTerm{
						Chunk: s.Chunk, Sensitivity: est.Sens.String(),
						BWBps: est.BWBps, BenefitNS: est.BenefitNS,
					})
				}
			}
		}
	}

	// Every chunk is a knapsack item — including never-profiled ones,
	// whose zero benefit lets the solver demote them out of contended
	// fast tiers when the space earns more elsewhere.
	names := make([]string, 0, len(r.chunkSize))
	for c := range r.chunkSize {
		names = append(names, c)
	}
	sort.Strings(names)
	items := make([]placement.TieredItem, 0, len(names))
	for _, c := range names {
		size := r.chunkSize[c]
		cur := current[c]
		w := make([]float64, nTiers)
		for t := range w {
			if b := benefit[c]; b != nil {
				w[t] = b[t]
			}
			if machine.TierKind(t) != cur {
				// Eq. 4 on the (cur, t) tier-graph edge: adoption copies
				// overlap with the whole iteration; the exposed remainder
				// is paid once and amortized.
				cost := m.CopyTimeBetweenNS(cur, machine.TierKind(t), size) - iterNS
				if cost < 0 {
					cost = 0
				}
				w[t] -= cost / float64(r.cfg.AmortizeIters)
			}
		}
		items = append(items, placement.TieredItem{Chunk: c, Size: size, WeightNS: w})
	}
	caps := make([]int64, nTiers)
	for t := 0; t < nTiers-1; t++ {
		caps[t] = m.Tier(machine.TierKind(t)).CapacityBytes
	}
	caps[slow] = -1
	r.tierPlan = placement.SolveTiered(items, caps)

	// Modeling cost: estimates plus the table cells the solver actually
	// evaluated (the 2D DP's state space is the capacity product, not the
	// sum), charged to the critical path like the two-tier decision.
	modelNS := float64(modelOps)*200 + float64(r.tierPlan.Work)*20
	decideAt := ctx.Comm.Clock()
	ctx.Comm.Advance(int64(modelNS))
	r.overheadNS += modelNS
	if ctx.Trace != nil {
		ctx.Trace.Span(obs.Virtual, r.rank, "placement decision", "unimem", decideAt, ctx.Comm.Clock(),
			map[string]any{"solver": r.tierPlan.Solver, "model_ops": modelOps,
				"decision": r.Decisions, "tiers": nTiers})
	}
	r.adoptTrigger = decisionTrigger(r.Decisions)
	if r.expl != nil {
		r.explainTiered(phases, terms, items, benefit, current, caps, iterNS, modelNS)
	}

	// Rebaseline the variation monitor.
	r.decisionIter = r.reg.Iter()
	for _, p := range phases {
		p.DecisionNS = 0
	}

	// Adoption.
	r.oneShotTiered = make(map[int][]tieredMove)
	for _, it := range items {
		want := machine.TierKind(r.tierPlan.Assign[it.Chunk])
		cur := current[it.Chunk]
		if want == cur {
			continue
		}
		if want > cur {
			// Demotion: freeing contended fast-tier space early is always
			// safe.
			r.enqueueTieredMove(ctx, tieredMove{chunk: it.Chunk, to: want, target: -1}, r.adoptTrigger)
			continue
		}
		target := r.firstReferencing(it.Chunk)
		trigger := r.reg.TriggerPhase(it.Chunk, target)
		r.oneShotTiered[trigger] = append(r.oneShotTiered[trigger],
			tieredMove{chunk: it.Chunk, to: want, target: target})
	}
}

// decisionTrigger classifies what prompted the n-th decision: the first
// profiled iteration, or the variation monitor's drift detection.
func decisionTrigger(n int) string {
	if n <= 1 {
		return "profile"
	}
	return "drift"
}

// explainTiered records the N-tier decision's attribution: the per-phase
// term breakdown, the chunk assignments the knapsack priced out of their
// individually best tier, and the oracle-static regret baseline (the same
// knapsack re-solved with pure benefits and zero movement cost — the
// clairvoyant placement from t=0).
func (r *Runtime) explainTiered(phases []*phase.Info, terms [][]obs.ChunkTerm,
	items []placement.TieredItem, benefit map[string][]float64,
	current map[string]machine.TierKind, caps []int64, iterNS, modelNS float64) {
	nTiers := len(caps)
	slow := nTiers - 1
	rec := obs.DecisionRecord{
		Decision: r.Decisions, Iter: r.reg.Iter(), Trigger: decisionTrigger(r.Decisions),
		Solver: r.tierPlan.Solver, TotalWeightNS: r.tierPlan.TotalWeightNS, ModelNS: modelNS,
	}

	// Oracle baseline: an all-slowest iteration costs the profiled time
	// plus the benefit baked in by the tiers chunks profiled at; the
	// oracle's pure-benefit knapsack earns its total weight back off that.
	oItems := make([]placement.TieredItem, 0, len(items))
	baseAllSlow := iterNS
	for _, it := range items {
		w := make([]float64, nTiers)
		if b := benefit[it.Chunk]; b != nil {
			copy(w, b)
			baseAllSlow += b[int(current[it.Chunk])]
		}
		oItems = append(oItems, placement.TieredItem{Chunk: it.Chunk, Size: it.Size, WeightNS: w})
	}
	oracle := placement.SolveTiered(oItems, caps)
	rec.OracleIterNS = baseAllSlow - oracle.TotalWeightNS

	for pi, p := range phases {
		tb := obs.TermBreakdown{Phase: p.ID, Name: p.Name, Kind: p.Kind.String(), DurNS: p.ProfiledNS}
		for _, ct := range terms[pi] {
			ct.Chosen = r.tierPlan.Assign[ct.Chunk] < slow
			if ct.Chosen {
				tb.BenefitNS += ct.BenefitNS
			}
			tb.Chunks = append(tb.Chunks, ct)
		}
		rec.Phases = append(rec.Phases, tb)
	}

	// Rejected alternatives: the top chunks denied their individually
	// best tier (the marginal delta the capacity constraint cost them).
	var rej []obs.RejectedChoice
	for _, it := range items {
		best := 0
		for t := range it.WeightNS {
			if it.WeightNS[t] > it.WeightNS[best] {
				best = t
			}
		}
		got := r.tierPlan.Assign[it.Chunk]
		if got != best && it.WeightNS[best] > it.WeightNS[got] {
			rej = append(rej, obs.RejectedChoice{
				Chunk: it.Chunk, ChosenTier: got, BestTier: best,
				DeltaNS: it.WeightNS[best] - it.WeightNS[got],
			})
		}
	}
	sort.SliceStable(rej, func(a, b int) bool { return rej[a].DeltaNS > rej[b].DeltaNS })
	if len(rej) > maxRejectedChoices {
		rej = rej[:maxRejectedChoices]
	}
	rec.Rejected = rej
	r.expl.AddDecision(rec)
}

// maxRejectedChoices caps the N-tier rejected-alternatives list per
// decision (top-k by marginal delta).
const maxRejectedChoices = 8

// firstReferencing returns the first phase (iteration order) whose profile
// references the chunk, defaulting to 0.
func (r *Runtime) firstReferencing(chunk string) int {
	for _, p := range r.reg.Phases() {
		if p.References(chunk) {
			return p.ID
		}
	}
	return 0
}

// references exposes the registry's profiled reference map to the
// placement searches.
func (r *Runtime) references(chunk string, phaseID int) bool {
	phases := r.reg.Phases()
	return phaseID >= 0 && phaseID < len(phases) && phases[phaseID].References(chunk)
}

// SteadyState implements app.FastPather: the runtime certifies a
// quiescent fixed point — a decision is in force, profiling is off and
// no re-profile is scheduled, no adoption or dependence-tracked moves
// are outstanding, the plan carries no recurring migration schedule, the
// helper thread is idle, the variation monitor's post-decision settling
// window has elapsed, and every computation phase has a baseline. Under
// these conditions an iteration that repeats the previous one charges
// exactly the same costs, so the harness may extrapolate it.
func (r *Runtime) SteadyState() bool {
	if r.profiling || r.reprofileNext {
		return false
	}
	if r.plan == nil && r.tierPlan == nil {
		return false
	}
	if len(r.oneShot) > 0 || len(r.oneShotTiered) > 0 || len(r.pendingSeq) > 0 {
		return false
	}
	if r.plan != nil && len(r.plan.Schedule) > 0 {
		return false
	}
	if !r.mov.Idle() {
		return false
	}
	if r.reg.Iter() <= r.decisionIter+1 {
		return false
	}
	for _, p := range r.reg.Phases() {
		if p.Kind == phase.Compute && p.DecisionNS == 0 {
			return false
		}
	}
	return true
}

// FastForward implements app.FastPather: replay the bookkeeping of n
// skipped steady-state iterations. The iteration counter advances (so
// the variation monitor's settling arithmetic and the decision audit
// keep real iteration numbers), and the per-phase queue-status check
// PhaseBegin charges once a plan is enforced is accumulated with the
// same sequence of float additions the simulated path would have made.
// Decision state — plan, baselines, DecisionNS, ReprofileIters — is
// untouched: a skipped window is by construction one the monitor would
// have stayed quiet through.
func (r *Runtime) FastForward(n int) {
	r.reg.FastForward(n)
	for i := 0; i < n; i++ {
		for range r.reg.Phases() {
			r.overheadNS += mover.SyncCheckNS
		}
	}
}

// LoopEnd implements app.Manager: unimem_end — stop the helper thread.
func (r *Runtime) LoopEnd(ctx *app.RankCtx) {
	r.mov.Stop()
}

// RuntimeOverheadNS implements app.Manager.
func (r *Runtime) RuntimeOverheadNS(int) float64 { return r.overheadNS }
