package obs

import (
	"encoding/json"
	"sync"
)

// Explain is the decision-attribution recorder: it accumulates, during one
// run, the cost-model term breakdown behind every placement decision, an
// audit record for every migration, the variation monitor's re-profile
// triggers, and finally a regret figure against the oracle-best static
// placement. The instrumented code (harness, runtime, mover observer)
// threads an *Explain unconditionally and calls it at the points where
// decisions happen; like Trace, every method nil-checks its receiver, so
// the disabled path costs one pointer comparison and records nothing.
//
// Attribution never changes simulated time or results, and is excluded
// from run-cache keys.
type Explain struct {
	mu  sync.Mutex
	doc ExplainDoc
}

// NewExplain returns an empty recorder.
func NewExplain() *Explain { return &Explain{} }

// ExplainDoc is the exported attribution document for one run.
type ExplainDoc struct {
	// RunID joins the document to transport-level identity: the daemon
	// sets it to the request's X-Request-Id.
	RunID    string `json:"run_id,omitempty"`
	Workload string `json:"workload,omitempty"`
	Machine  string `json:"machine,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	// Iterations is the workload's (possibly quick-capped) iteration count.
	Iterations int `json:"iterations,omitempty"`
	// RealizedNS is the run's application execution time (slowest rank).
	RealizedNS int64 `json:"realized_ns,omitempty"`

	Decisions    []DecisionRecord    `json:"decisions,omitempty"`
	Migrations   []MigrationRecord   `json:"migrations,omitempty"`
	Reprofiles   []ReprofileRecord   `json:"reprofiles,omitempty"`
	FastForwards []FastForwardRecord `json:"fastforwards,omitempty"`
	Regret       *RegretRecord       `json:"regret,omitempty"`
}

// DecisionRecord is one placement decision (the first profile-driven one,
// or a re-decision after drift) with its full model attribution.
type DecisionRecord struct {
	// Decision is the 1-based decision ordinal on the recorded rank.
	Decision int `json:"decision"`
	// Iter is the completed-iteration count when the decision was taken.
	Iter int `json:"iter"`
	// Trigger is "profile" for the first decision, "drift" afterwards.
	Trigger string `json:"trigger"`
	// Solver names the winning search or knapsack variant.
	Solver string `json:"solver"`
	// PredictedIterNS is the model-predicted steady-state iteration time
	// of the chosen placement (0 on the N-tier path, which predicts total
	// weight instead — see TotalWeightNS).
	PredictedIterNS float64 `json:"predicted_iter_ns,omitempty"`
	// TotalWeightNS is the N-tier knapsack's objective value.
	TotalWeightNS float64 `json:"total_weight_ns,omitempty"`
	// OracleIterNS is the model-predicted iteration time of the
	// clairvoyant best static placement (no adoption cost), the per-
	// iteration baseline the regret figure compares against.
	OracleIterNS float64 `json:"oracle_iter_ns,omitempty"`
	// ModelNS is the modeling+solver cost charged to the critical path.
	ModelNS float64 `json:"model_ns"`

	// Phases is the per-phase Eq. 1-3 term breakdown.
	Phases []TermBreakdown `json:"phases,omitempty"`
	// Alternatives are the candidate plans the two-search pipeline
	// considered, winner included (two-tier path).
	Alternatives []AlternativeRecord `json:"alternatives,omitempty"`
	// Rejected are the top chunk-level assignments the N-tier knapsack
	// priced out of their individually best tier (N-tier path).
	Rejected []RejectedChoice `json:"rejected,omitempty"`
}

// TermBreakdown is one phase's model view at decision time.
type TermBreakdown struct {
	Phase int    `json:"phase"`
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	// DurNS is the phase duration measured during the profiling iteration.
	DurNS float64 `json:"dur_ns"`
	// BenefitNS sums the Eq. 2/3 benefit of the chunks chosen for fast
	// tiers in this phase.
	BenefitNS float64     `json:"benefit_ns"`
	Chunks    []ChunkTerm `json:"chunks,omitempty"`
}

// ChunkTerm is one chunk's Eq. 1-3 attribution within a phase.
type ChunkTerm struct {
	Chunk string `json:"chunk"`
	// Sensitivity is the Eq. 1 classification: bandwidth, latency, mixed.
	Sensitivity string `json:"sensitivity"`
	// BWBps is the chunk's consumed main-memory bandwidth (Eq. 1).
	BWBps float64 `json:"bw_bps"`
	// BenefitNS is the predicted per-execution gain of fast-tier
	// residency (Eq. 2/3).
	BenefitNS float64 `json:"benefit_ns"`
	// Chosen reports whether the adopted placement granted the chunk a
	// fast tier for this phase.
	Chosen bool `json:"chosen"`
}

// AlternativeRecord is one candidate plan of the two-search pipeline.
type AlternativeRecord struct {
	Strategy        string  `json:"strategy"`
	PredictedIterNS float64 `json:"predicted_iter_ns"`
	// DeltaNS is this plan's predicted iteration time minus the winner's
	// (0 for the winner; the marginal cost of picking this plan instead).
	DeltaNS float64 `json:"delta_ns"`
	Moves   int     `json:"moves"`
	Chosen  bool    `json:"chosen,omitempty"`
}

// RejectedChoice is one chunk the N-tier knapsack denied its individually
// best tier for capacity reasons.
type RejectedChoice struct {
	Chunk      string `json:"chunk"`
	ChosenTier int    `json:"chosen_tier"`
	BestTier   int    `json:"best_tier"`
	// DeltaNS is the per-iteration weight forgone by the denial.
	DeltaNS float64 `json:"delta_ns"`
}

// MigrationRecord is one completed (or failed) migration with its trigger
// and realized-vs-predicted cost.
type MigrationRecord struct {
	Chunk string `json:"chunk"`
	From  string `json:"from"`
	To    string `json:"to"`
	Bytes int64  `json:"bytes"`
	// Trigger classifies the move: "adoption" (first decision's one-time
	// moves), "reprofile" (a re-decision's adoption after drift), or
	// "steady-state" (the recurring per-iteration schedule).
	Trigger string `json:"trigger"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// PredictedNS is the Eq. 4 raw copy-time estimate priced at enqueue.
	PredictedNS float64 `json:"predicted_ns"`
	// RealizedNS is the copy time the virtual timeline actually charged
	// (EndNS-StartNS includes queueing behind earlier moves).
	RealizedNS int64  `json:"realized_ns"`
	Failed     bool   `json:"failed,omitempty"`
	Error      string `json:"error,omitempty"`
}

// ReprofileRecord is one variation-monitor trigger.
type ReprofileRecord struct {
	// Iter is the completed-iteration count at which drift was detected.
	Iter  int    `json:"iter"`
	Phase string `json:"phase"`
	// Variation is the relative duration drift that tripped the monitor.
	Variation float64 `json:"variation"`
	Threshold float64 `json:"threshold"`
}

// FastForwardRecord is one steady-state fast-forward event: a stable window
// of iterations the harness skipped without simulation, advancing the
// virtual clock in one step.
type FastForwardRecord struct {
	// EntryIter is the iteration index at which fast-forward engaged.
	EntryIter int `json:"entry_iter"`
	// ExitIter is the first iteration simulated again (EntryIter + Iters;
	// equals the workload's iteration count when the run ended inside the
	// window).
	ExitIter int `json:"exit_iter"`
	// Iters is the number of iterations fast-forwarded.
	Iters int `json:"iters"`
	// ClockDeltaNS is the virtual time the skipped window spanned on the
	// recorded rank.
	ClockDeltaNS int64 `json:"clock_delta_ns"`
}

// RegretRecord compares the run's realized execution time against the
// oracle-best static placement priced by the same memoized model.
type RegretRecord struct {
	RealizedNS int64 `json:"realized_ns"`
	// OracleNS is the model-predicted total time of the clairvoyant best
	// static placement: the per-decision oracle iteration times averaged
	// and scaled to the run's iteration count.
	OracleNS int64 `json:"oracle_ns"`
	// RegretNS is RealizedNS - OracleNS: what adapting online cost over
	// placing perfectly up front. Near zero is ideal; negative means the
	// model's oracle underestimates (itself a diagnostic).
	RegretNS int64 `json:"regret_ns"`
	// RegretFrac is RegretNS / OracleNS.
	RegretFrac float64 `json:"regret_frac"`
}

// SetRunID stamps the document with a transport-level identity.
func (e *Explain) SetRunID(id string) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.doc.RunID = id
	e.mu.Unlock()
}

// RunID returns the stamped identity ("" when unset or e is nil).
func (e *Explain) RunID() string {
	if e == nil {
		return ""
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.doc.RunID
}

// AddDecision appends one decision record.
func (e *Explain) AddDecision(d DecisionRecord) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.doc.Decisions = append(e.doc.Decisions, d)
	e.mu.Unlock()
}

// AddMigration appends one migration audit record.
func (e *Explain) AddMigration(m MigrationRecord) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.doc.Migrations = append(e.doc.Migrations, m)
	e.mu.Unlock()
}

// AddReprofile appends one variation-monitor trigger record.
func (e *Explain) AddReprofile(r ReprofileRecord) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.doc.Reprofiles = append(e.doc.Reprofiles, r)
	e.mu.Unlock()
}

// AddFastForward appends one steady-state fast-forward event.
func (e *Explain) AddFastForward(entryIter, exitIter int, clockDeltaNS int64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.doc.FastForwards = append(e.doc.FastForwards, FastForwardRecord{
		EntryIter:    entryIter,
		ExitIter:     exitIter,
		Iters:        exitIter - entryIter,
		ClockDeltaNS: clockDeltaNS,
	})
	e.mu.Unlock()
}

// Finish stamps the run's identity and realized outcome, and derives the
// regret figure from the recorded decisions' oracle baselines. Safe to
// call once per run, after the result is known.
func (e *Explain) Finish(workload, machine, strategy string, realizedNS int64, iterations int) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.doc.Workload = workload
	e.doc.Machine = machine
	e.doc.Strategy = strategy
	e.doc.RealizedNS = realizedNS
	e.doc.Iterations = iterations

	// Oracle per-iteration baseline: the mean across decisions (under
	// drift, each re-decision re-prices the oracle against the fresh
	// profile; averaging weights every regime the run saw).
	var sum float64
	var n int
	for _, d := range e.doc.Decisions {
		if d.OracleIterNS > 0 {
			sum += d.OracleIterNS
			n++
		}
	}
	if n == 0 || iterations <= 0 {
		return
	}
	oracle := int64(sum / float64(n) * float64(iterations))
	if oracle <= 0 {
		return
	}
	e.doc.Regret = &RegretRecord{
		RealizedNS: realizedNS,
		OracleNS:   oracle,
		RegretNS:   realizedNS - oracle,
		RegretFrac: float64(realizedNS-oracle) / float64(oracle),
	}
}

// Doc returns a snapshot copy of the document (nil when e is nil).
func (e *Explain) Doc() *ExplainDoc {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := e.doc
	cp.Decisions = append([]DecisionRecord(nil), e.doc.Decisions...)
	cp.Migrations = append([]MigrationRecord(nil), e.doc.Migrations...)
	cp.Reprofiles = append([]ReprofileRecord(nil), e.doc.Reprofiles...)
	cp.FastForwards = append([]FastForwardRecord(nil), e.doc.FastForwards...)
	if e.doc.Regret != nil {
		r := *e.doc.Regret
		cp.Regret = &r
	}
	return &cp
}

// MarshalJSON exports the document snapshot.
func (e *Explain) MarshalJSON() ([]byte, error) {
	if e == nil {
		return []byte("null"), nil
	}
	return json.Marshal(e.Doc())
}
