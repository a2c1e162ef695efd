package phase

import "math"

// Key is a 64-bit FNV-1a digest identifying the simulation inputs of one
// phase execution: what the phase will touch (content), where that data
// lives (placement) and what hardware prices it (machine fingerprint).
// Two executions with equal Keys are computed identically by the
// simulator, which is what makes the memo layer and the steady-state
// fast-forward sound. The zero Key is reserved as "no key".
type Key uint64

// Digest is an incremental FNV-1a hasher for composing Keys. The zero
// value is not a valid start state; begin with NewDigest. Fold methods
// return the advanced digest so key construction chains without
// allocation.
type Digest uint64

const (
	fnvOffset Digest = 14695981039346656037
	fnvPrime  Digest = 1099511628211
)

// NewDigest returns the FNV-1a offset basis.
func NewDigest() Digest { return fnvOffset }

// Uint64 folds v little-endian byte by byte.
func (d Digest) Uint64(v uint64) Digest {
	for i := 0; i < 8; i++ {
		d = (d ^ Digest(v&0xff)) * fnvPrime
		v >>= 8
	}
	return d
}

// Int64 folds v as its two's-complement bits.
func (d Digest) Int64(v int64) Digest { return d.Uint64(uint64(v)) }

// Int folds v as an int64.
func (d Digest) Int(v int) Digest { return d.Uint64(uint64(int64(v))) }

// Float64 folds the IEEE-754 bits of v, so exact-value equality (the
// only equality the fast path may rely on) is what keys compare.
func (d Digest) Float64(v float64) Digest { return d.Uint64(math.Float64bits(v)) }

// String folds the bytes of s.
func (d Digest) String(s string) Digest {
	for i := 0; i < len(s); i++ {
		d = (d ^ Digest(s[i])) * fnvPrime
	}
	return d
}

// Key finalizes the digest.
func (d Digest) Key() Key { return Key(d) }
