package phase

// Memo is the per-run phase-outcome memo table of the steady-state fast
// path: outcomes keyed by the full PhaseKey (content x placement x
// machine), plus per-phase-position streak tracking that measures how
// long every position has been re-presenting the same key — the
// stability signal the fast-forward entry condition consumes.
//
// Memo is used by a single rank coroutine; it is not safe for
// concurrent use. A nil *Memo no-ops and reports zero stability, so the
// exact-simulation path carries a single pointer check.
type Memo struct {
	entries map[Key]float64
	slots   []memoSlot
	hits    int64
	misses  int64
}

// memoSlot tracks one phase position's key history across iterations.
type memoSlot struct {
	lastKey Key
	streak  int // consecutive iterations presenting lastKey
}

// NewMemo returns an empty memo table.
func NewMemo() *Memo {
	return &Memo{entries: make(map[Key]float64)}
}

// Observe records one phase execution's key and measured duration at
// phase position pos, and reports whether the outcome was already
// memoized under that key (a memo hit). The streak for pos grows when
// the key repeats and resets to 1 when it changes, so a position's
// streak is the number of consecutive iterations (including this one)
// that produced this exact key.
func (m *Memo) Observe(pos int, key Key, durNS float64) bool {
	if m == nil {
		return false
	}
	for len(m.slots) <= pos {
		m.slots = append(m.slots, memoSlot{})
	}
	s := &m.slots[pos]
	if s.lastKey == key {
		s.streak++
	} else {
		s.lastKey = key
		s.streak = 1
	}
	if prev, ok := m.entries[key]; ok && prev == durNS {
		m.hits++
		return true
	}
	m.entries[key] = durNS
	m.misses++
	return false
}

// StableIters returns the number of consecutive completed iterations
// over which every observed phase position re-presented the same key —
// the minimum streak across positions (0 with no observations).
func (m *Memo) StableIters() int {
	if m == nil || len(m.slots) == 0 {
		return 0
	}
	min := m.slots[0].streak
	for _, s := range m.slots[1:] {
		if s.streak < min {
			min = s.streak
		}
	}
	return min
}

// Hits returns the number of memo hits observed.
func (m *Memo) Hits() int64 {
	if m == nil {
		return 0
	}
	return m.hits
}

// Misses returns the number of memo misses (first sightings) observed.
func (m *Memo) Misses() int64 {
	if m == nil {
		return 0
	}
	return m.misses
}
