package placement

import (
	"fmt"
	"sort"
)

// Strategy names the search that produced a plan.
type Strategy string

const (
	// Local is the phase-local search: an optimal knapsack per phase,
	// allowing data movement between phases.
	Local Strategy = "phase-local"
	// Global is the cross-phase global search: all phases treated as one
	// combined phase, a single placement, no intra-iteration movement.
	Global Strategy = "cross-phase-global"
)

// PhaseData is the model's view of one phase at decision time.
type PhaseData struct {
	// DurNS is the duration measured during the profiling iteration.
	DurNS float64
	// Benefit maps chunk name -> predicted per-execution gain (ns) of DRAM
	// residency (Eq. 2/3 output). Chunks absent from the map were not
	// observed accessing main memory in this phase.
	Benefit map[string]float64
}

// Input packages everything the searches need, keeping the package pure and
// independently testable.
type Input struct {
	DRAMCapacity int64
	// ChunkSize maps every candidate chunk to its size in bytes.
	ChunkSize map[string]int64
	Phases    []PhaseData
	// Resident is DRAM residency at decision time (i.e. during profiling).
	Resident map[string]bool
	// CopyTimeNS returns the raw migration time for a size.
	CopyTimeNS func(size int64) float64
	// OverlapNS returns the available computation-overlap window for
	// migrating chunk in time for phase target (Fig. 5).
	OverlapNS func(chunk string, target int) float64
	// TriggerPhase returns the phase index at which such a migration may
	// be enqueued.
	TriggerPhase func(chunk string, target int) int
	// References reports whether the profiled phase references the chunk
	// (the registry's dependence information); may be nil, in which case
	// evictions stay at their demand points and insertions do not slide
	// past full phases.
	References func(chunk string, phase int) bool
	// AmortizeIters spreads one-time adoption cost when scoring the global
	// strategy (default 10).
	AmortizeIters int
	// NaivePredictor scores plans with per-move Eq. 4 costs only (no
	// helper-thread timeline simulation) — an ablation knob showing why
	// FIFO queueing must be modeled.
	NaivePredictor bool
	// NoHysteresis disables the recurrence round-trip charge in the local
	// search's steady-state pass — an ablation knob showing why marginal
	// candidates must not churn.
	NoHysteresis bool
}

// Move is one entry of the proactive migration schedule.
type Move struct {
	Chunk  string
	ToDRAM bool
	// TriggerPhase is the phase at whose start the move is enqueued.
	TriggerPhase int
	// TargetPhase is the phase that requires the move completed (for
	// ToDRAM moves; evictions use the phase needing the space).
	TargetPhase int
}

// String renders a move for logs.
func (m Move) String() string {
	dir := "->DRAM"
	if !m.ToDRAM {
		dir = "->NVM"
	}
	return fmt.Sprintf("%s%s@p%d(for p%d)", m.Chunk, dir, m.TriggerPhase, m.TargetPhase)
}

// Plan is the outcome of one search strategy.
type Plan struct {
	Strategy Strategy
	// Desired is the DRAM-resident set for each phase.
	Desired []map[string]bool
	// Adoption is the one-time move list bringing the decision-time state
	// to Desired[0].
	Adoption []Move
	// Schedule is the recurring per-iteration move list (empty when the
	// desired sets are identical across phases).
	Schedule []Move
	// PredictedIterNS is the model-predicted steady-state iteration time.
	PredictedIterNS float64
}

// baseNS returns the phase durations normalized to an all-NVM placement:
// the profiled duration plus the benefit of every chunk that was already
// DRAM-resident while profiling (its gain is baked into the measurement).
func (in *Input) baseNS() []float64 {
	base := make([]float64, len(in.Phases))
	for p, pd := range in.Phases {
		base[p] = pd.DurNS
		for c, b := range pd.Benefit {
			if in.Resident[c] {
				base[p] += b
			}
		}
	}
	return base
}

// sortedChunks returns map keys in deterministic order.
func sortedChunks[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func setBytes(in *Input, set map[string]bool) int64 {
	var n int64
	for c := range set {
		n += in.ChunkSize[c]
	}
	return n
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k, v := range s {
		if v {
			out[k] = true
		}
	}
	return out
}

// SearchLocal runs the phase-local search: phases are decided one by one
// (§3.1.3), each with its own knapsack whose weights fold in movement cost
// (Eq. 4) and the extra cost of evicting residents when DRAM is short.
//
// The sequential pass runs twice: the placement repeats every iteration,
// so costs must be priced against the cyclic steady state (what is
// resident when the phase comes around again), not against the one-off
// residency at decision time — otherwise an object that the cycle evicts
// every iteration looks like a free resident at the phases that use it,
// and the search oscillates large objects for marginal gain.
func SearchLocal(in *Input) *Plan {
	return SearchLocalFrom(in, in.Resident)
}

// SearchLocalFrom is SearchLocal with an explicit warm-start residency.
// Decide seeds it with the global plan's chosen set, making the local
// search a refinement of the best static placement rather than of the
// arbitrary adoption-time state (the sequential pass is greedy, so its
// starting point matters).
func SearchLocalFrom(in *Input, seed map[string]bool) *Plan {
	// Pass 1 prices one-time adoption only (no recurrence charge) and
	// reveals which chunks would be cycle-stable (desired at every phase)
	// versus transient (moved within the cycle). Pass 2, warm-started from
	// pass 1's end state, charges every transient candidate the recurring
	// round-trip copy its residency implies, so only swaps that genuinely
	// out-earn the helper thread's occupancy survive.
	resident := copySet(seed)
	desired := searchLocalPass(in, resident, nil)
	stable := map[string]bool{}
	if n := len(desired); n > 0 {
		for c := range desired[0] {
			inAll := true
			for p := 1; p < n; p++ {
				if !desired[p][c] {
					inAll = false
					break
				}
			}
			if inAll {
				stable[c] = true
			}
		}
		resident = desired[n-1]
	}
	if in.NoHysteresis {
		for c := range in.ChunkSize {
			stable[c] = true // every candidate priced as cycle-stable
		}
	}
	desired = searchLocalPass(in, resident, stable)
	plan := &Plan{Strategy: Local, Desired: desired}
	plan.Adoption, plan.Schedule = buildSchedule(in, desired)
	plan.PredictedIterNS = predictIter(in, plan)
	return plan
}

// searchLocalPass runs one sequential per-phase knapsack pass. stable, when
// non-nil, enables the steady-state recurrence charge for chunks outside it.
func searchLocalPass(in *Input, startResident map[string]bool, stable map[string]bool) []map[string]bool {
	resident := copySet(startResident)
	desired := make([]map[string]bool, len(in.Phases))
	for p, pd := range in.Phases {
		residentBytes := setBytes(in, resident)
		var items []Item
		for _, c := range sortedChunks(pd.Benefit) {
			b := pd.Benefit[c]
			size := in.ChunkSize[c]
			w := b
			if stable != nil && !stable[c] {
				// Transient in the cyclic steady state: every iteration
				// re-inserts and re-evicts it; charge the round trip so
				// marginal candidates don't churn (hysteresis against
				// oscillation and helper-thread congestion).
				w -= in.CopyTimeNS(size)
			}
			if !resident[c] {
				w -= MoveCost(in, size, in.OverlapNS(c, p))
				// extraCOST: evicting enough bytes to make room.
				if deficit := size - (in.DRAMCapacity - residentBytes); deficit > 0 {
					w -= in.CopyTimeNS(deficit)
				}
			}
			items = append(items, Item{Chunk: c, Size: size, WeightNS: w})
		}
		chosen, _ := Knapsack(items, in.DRAMCapacity)
		next := make(map[string]bool, len(chosen))
		var nextBytes int64
		for _, i := range chosen {
			next[items[i].Chunk] = true
			nextBytes += items[i].Size
		}
		// Prior residents stay if they still fit (eviction only on space
		// demand, matching the runtime's lazy eviction).
		for _, c := range sortedChunks(resident) {
			if next[c] {
				continue
			}
			if sz := in.ChunkSize[c]; nextBytes+sz <= in.DRAMCapacity {
				next[c] = true
				nextBytes += sz
			}
		}
		desired[p] = next
		resident = next
	}
	return desired
}

// SearchGlobal runs the cross-phase global search: all phases combine into
// one, per-chunk weight is the benefit summed over phases minus the
// amortized one-time adoption cost, and a single knapsack fixes one
// placement for the whole iteration.
func SearchGlobal(in *Input) *Plan {
	amort := in.AmortizeIters
	if amort <= 0 {
		amort = 10
	}
	total := make(map[string]float64)
	for _, pd := range in.Phases {
		for c, b := range pd.Benefit {
			total[c] += b
		}
	}
	var items []Item
	for _, c := range sortedChunks(total) {
		size := in.ChunkSize[c]
		w := total[c]
		if !in.Resident[c] {
			// Adoption migrations overlap with the whole iteration; any
			// exposed remainder is paid once and amortized.
			w -= MoveCost(in, size, iterSpan(in)) / float64(amort)
		}
		items = append(items, Item{Chunk: c, Size: size, WeightNS: w})
	}
	chosen, _ := Knapsack(items, in.DRAMCapacity)
	set := make(map[string]bool, len(chosen))
	for _, i := range chosen {
		set[items[i].Chunk] = true
	}
	desired := make([]map[string]bool, len(in.Phases))
	for p := range desired {
		desired[p] = set
	}
	plan := &Plan{Strategy: Global, Desired: desired}
	plan.Adoption, plan.Schedule = buildSchedule(in, desired)
	plan.PredictedIterNS = predictIter(in, plan)
	return plan
}

// Decide runs the enabled strategies and returns the plan with the best
// predicted iteration time (§3.1.3: "choose the best data placement of the
// two searches").
func Decide(in *Input, enableLocal, enableGlobal bool) *Plan {
	best, _ := DecideAll(in, enableLocal, enableGlobal)
	return best
}

// DecideAll is Decide returning every candidate plan alongside the winner,
// for tooling and tests.
func DecideAll(in *Input, enableLocal, enableGlobal bool) (*Plan, []*Plan) {
	var best *Plan
	var all []*Plan
	if enableGlobal {
		best = SearchGlobal(in)
		all = append(all, best)
	}
	if enableLocal {
		seed := in.Resident
		if best != nil {
			seed = best.Desired[0]
		}
		lp := SearchLocalFrom(in, seed)
		all = append(all, lp)
		if best == nil || lp.PredictedIterNS < best.PredictedIterNS {
			best = lp
		}
	}
	if best == nil {
		// No strategy enabled: keep everything where it is.
		desired := make([]map[string]bool, len(in.Phases))
		for p := range desired {
			desired[p] = copySet(in.Resident)
		}
		best = &Plan{Strategy: "none", Desired: desired}
		best.PredictedIterNS = predictIter(in, best)
		all = append(all, best)
	}
	return best, all
}

// OracleStaticNS prices the clairvoyant best static placement: one DRAM
// set chosen with full knowledge of the profiled benefits and zero
// adoption cost (the oracle placed the data before the run began), held
// for the whole iteration. It returns the model-predicted steady-state
// iteration time of that placement — the per-iteration baseline the
// explain layer's regret figure compares realized execution against. The
// computation is one extra knapsack over the already-memoized benefit
// totals, so it is cheap enough to run at every decision.
func OracleStaticNS(in *Input) float64 {
	total := make(map[string]float64)
	for _, pd := range in.Phases {
		for c, b := range pd.Benefit {
			total[c] += b
		}
	}
	var items []Item
	for _, c := range sortedChunks(total) {
		items = append(items, Item{Chunk: c, Size: in.ChunkSize[c], WeightNS: total[c]})
	}
	_, gain := Knapsack(items, in.DRAMCapacity)
	var base float64
	for _, b := range in.baseNS() {
		base += b
	}
	return base - gain
}

// MoveCost applies Eq. 4 through the Input's callbacks.
func MoveCost(in *Input, size int64, overlapNS float64) float64 {
	c := in.CopyTimeNS(size) - overlapNS
	if c < 0 {
		return 0
	}
	return c
}

func iterSpan(in *Input) float64 {
	var s float64
	for _, pd := range in.Phases {
		s += pd.DurNS
	}
	return s
}

// buildSchedule derives the one-time adoption moves (decision-time state to
// Desired[0]) and the recurring per-iteration schedule (cyclic diffs of the
// desired sets, with DRAM-bound moves triggered as early as the dependence
// analysis allows).
func buildSchedule(in *Input, desired []map[string]bool) (adoption, schedule []Move) {
	n := len(desired)
	if n == 0 {
		return nil, nil
	}
	// Adoption: evictions first so space exists for insertions.
	for _, c := range sortedChunks(in.Resident) {
		if !desired[0][c] {
			adoption = append(adoption, Move{Chunk: c, ToDRAM: false, TriggerPhase: 0, TargetPhase: 0})
		}
	}
	for _, c := range sortedChunks(desired[0]) {
		if !in.Resident[c] {
			adoption = append(adoption, Move{Chunk: c, ToDRAM: true, TriggerPhase: 0, TargetPhase: 0})
		}
	}
	mod := func(x int) int { return ((x % n) + n) % n }

	// Collect per-chunk transition points: insertion phases (enters the
	// desired set) and eviction phases (leaves it).
	allChunks := map[string]bool{}
	for _, d := range desired {
		for c := range d {
			allChunks[c] = true
		}
	}
	type moveKey struct {
		chunk string
		phase int
	}
	var evictions, insertions []moveKey
	for _, c := range sortedChunks(allChunks) {
		for p := 0; p < n; p++ {
			prev := desired[mod(p-1)]
			if desired[p][c] && !prev[c] {
				insertions = append(insertions, moveKey{c, p})
			}
			if !desired[p][c] && prev[c] {
				evictions = append(evictions, moveKey{c, p})
			}
		}
	}

	// Proactive evictions: a chunk leaving the desired set at phase q can
	// vacate DRAM right after its last profiled reference before q — the
	// mirror image of Fig. 5's proactive insertion, and what lets the next
	// tenant's copy overlap (the double-buffering of the paper's Fig. 6
	// walkthrough). Without reference information, evict at the demand
	// point.
	evictTrigger := make(map[moveKey]int, len(evictions))
	for _, ev := range evictions {
		trig := ev.phase
		if in.References != nil {
			for j := 1; j < n; j++ {
				ph := mod(ev.phase - j)
				if desired[ph][ev.chunk] && in.References(ev.chunk, ph) {
					trig = mod(ph + 1)
					break
				}
			}
		}
		evictTrigger[ev] = trig
		schedule = append(schedule, Move{Chunk: ev.chunk, ToDRAM: false, TriggerPhase: trig, TargetPhase: ev.phase})
	}

	// Occupancy: the phases each chunk holds DRAM, from its (unslid)
	// insertion to its eviction trigger. Used to bound how far insertions
	// may slide back.
	occ := make([]int64, n)
	for _, c := range sortedChunks(allChunks) {
		for p := 0; p < n; p++ {
			if !desired[p][c] {
				continue
			}
			occ[p] += in.ChunkSize[c]
		}
	}
	// Extend occupancy from eviction demand back to eviction trigger is a
	// shrink (early vacancy): remove the occupancy of phases between the
	// eviction trigger and the demand point.
	for _, ev := range evictions {
		trig := evictTrigger[ev]
		if trig == ev.phase {
			continue
		}
		for j := trig; j != ev.phase; j = mod(j + 1) {
			if desired[j][ev.chunk] {
				occ[j] -= in.ChunkSize[ev.chunk]
			}
		}
	}

	// Insertions: slide each trigger as early as the dependence analysis
	// (Fig. 5), the chunk's own eviction, and DRAM occupancy allow.
	for _, ins := range insertions {
		c, p := ins.chunk, ins.phase
		stepsDep := n - 1
		if in.TriggerPhase != nil {
			stepsDep = mod(p - in.TriggerPhase(c, p))
		}
		size := in.ChunkSize[c]
		steps := 0
		for j := 1; j <= stepsDep; j++ {
			ph := mod(p - j)
			if desired[ph][c] || occ[ph]+size > in.DRAMCapacity {
				break
			}
			steps = j
		}
		trigger := mod(p - steps)
		// The slid-back copy occupies DRAM from trigger to target.
		for j := trigger; j != p; j = mod(j + 1) {
			occ[j] += size
		}
		schedule = append(schedule, Move{Chunk: c, ToDRAM: true, TriggerPhase: trigger, TargetPhase: p})
	}
	// Within a trigger phase, evictions must reach the helper queue before
	// insertions so the vacated space is available.
	sort.SliceStable(schedule, func(a, b int) bool {
		if schedule[a].TriggerPhase != schedule[b].TriggerPhase {
			return schedule[a].TriggerPhase < schedule[b].TriggerPhase
		}
		return !schedule[a].ToDRAM && schedule[b].ToDRAM
	})
	return adoption, schedule
}

// predictIter estimates the steady-state iteration time under a plan: the
// all-NVM base durations minus the benefit of DRAM-resident referenced
// chunks, plus the exposed cost of the recurring migration schedule.
//
// The exposed cost comes from a small timeline simulation of one steady-
// state cycle: the single helper thread serializes all copies in FIFO
// order, each move may not start before its trigger phase begins, and a
// DRAM-bound move not finished when its target phase starts stalls the
// application. Pricing each move's overlap window independently (the naive
// Eq. 4 reading) misses FIFO queueing and lets the local search schedule
// physically impossible amounts of overlapped copying.
func predictIter(in *Input, plan *Plan) float64 {
	base := in.baseNS()
	var t float64
	for p, pd := range in.Phases {
		t += base[p]
		for c, b := range pd.Benefit {
			if plan.Desired[p][c] {
				t -= b
			}
		}
	}
	n := len(in.Phases)
	if n == 0 || len(plan.Schedule) == 0 {
		return t
	}
	if in.NaivePredictor {
		// Ablation: price each move independently through Eq. 4, ignoring
		// helper-thread serialization.
		for _, mv := range plan.Schedule {
			if mv.ToDRAM {
				t += MoveCost(in, in.ChunkSize[mv.Chunk], in.OverlapNS(mv.Chunk, mv.TargetPhase))
			}
		}
		return t
	}
	// Phase start offsets within one cycle.
	start := make([]float64, n+1)
	for p := 0; p < n; p++ {
		start[p+1] = start[p] + base[p]
	}
	span := start[n]
	// Moves in trigger order, preserving schedule order within a phase
	// (evictions were emitted before insertions).
	moves := make([]Move, len(plan.Schedule))
	copy(moves, plan.Schedule)
	sort.SliceStable(moves, func(a, b int) bool {
		return moves[a].TriggerPhase < moves[b].TriggerPhase
	})
	var helperFree, stalls float64
	for _, mv := range moves {
		s := start[mv.TriggerPhase]
		if helperFree > s {
			s = helperFree
		}
		end := s + in.CopyTimeNS(in.ChunkSize[mv.Chunk])
		helperFree = end
		if mv.ToDRAM {
			deadline := start[mv.TargetPhase]
			if mv.TargetPhase < mv.TriggerPhase {
				deadline += span // genuinely wraps: arrives for the next cycle
			}
			// trigger == target means the move starts at the phase that
			// needs it: it is late by its own copy time every cycle.
			if end > deadline {
				stalls += end - deadline
			}
		}
	}
	return t + stalls
}
