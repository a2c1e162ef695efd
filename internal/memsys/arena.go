// Package memsys implements the heterogeneous memory substrate the Unimem
// runtime manages: an ordered N-tier heap (tier 0 fastest) with a real
// free-list allocator per tier, a table of named data objects (optionally
// partitioned into chunks), the migration mechanics that move chunks
// between any two tiers, and the user-level per-node coordination services
// of the shared fast tiers — the generalization of the §3.3 DRAM service
// (on the paper's two-tier platforms the layout is exactly the paper's:
// one coordinated DRAM allowance per node, one private NVM arena per
// rank).
//
// Object sizes and arena capacities are *simulated* byte counts (so Class
// C/D footprints of many gigabytes can be modelled). Chunks carry no real
// data: a migration moves the chunk's tier reservation and counts the
// pointer rewrite, and its cost comes from the machine's copy-time model,
// as Quartz-style NVM emulation separates timing from storage.
package memsys

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoSpace is returned when an arena cannot satisfy an allocation.
var ErrNoSpace = errors.New("memsys: arena out of space")

// run is a free extent [off, off+size).
type run struct {
	off, size int64
}

// Arena is a first-fit free-list allocator over a simulated address range
// of the given capacity. It is not safe for concurrent use; the NodeService
// serializes access for the shared DRAM arena.
type Arena struct {
	capacity int64
	used     int64
	free     []run // sorted by offset, coalesced
}

// NewArena returns an empty arena of the given capacity in bytes.
func NewArena(capacity int64) *Arena {
	if capacity < 0 {
		panic("memsys: negative arena capacity")
	}
	return &Arena{capacity: capacity, free: []run{{0, capacity}}}
}

// Capacity returns the arena's total capacity in bytes.
func (a *Arena) Capacity() int64 { return a.capacity }

// Used returns the number of bytes currently allocated.
func (a *Arena) Used() int64 { return a.used }

// Avail returns the number of free bytes (possibly fragmented).
func (a *Arena) Avail() int64 { return a.capacity - a.used }

// LargestFree returns the size of the largest contiguous free extent.
func (a *Arena) LargestFree() int64 {
	var max int64
	for _, r := range a.free {
		if r.size > max {
			max = r.size
		}
	}
	return max
}

// Alloc reserves size bytes and returns the offset of the reservation, or
// ErrNoSpace if no contiguous extent is large enough.
func (a *Arena) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("memsys: invalid allocation size %d", size)
	}
	for i := range a.free {
		if a.free[i].size >= size {
			off := a.free[i].off
			a.free[i].off += size
			a.free[i].size -= size
			if a.free[i].size == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			a.used += size
			return off, nil
		}
	}
	return 0, ErrNoSpace
}

// Free returns the extent [off, off+size) to the free list, coalescing with
// neighbours. Freeing an extent that overlaps a free run panics: it
// indicates allocator misuse (double free).
func (a *Arena) Free(off, size int64) {
	if size <= 0 || off < 0 || off+size > a.capacity {
		panic(fmt.Sprintf("memsys: bad free [%d,+%d) of arena cap %d", off, size, a.capacity))
	}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= off })
	if i > 0 && a.free[i-1].off+a.free[i-1].size > off {
		panic(fmt.Sprintf("memsys: double free at offset %d", off))
	}
	if i < len(a.free) && off+size > a.free[i].off {
		panic(fmt.Sprintf("memsys: double free at offset %d", off))
	}
	a.free = append(a.free, run{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = run{off, size}
	a.used -= size
	// Coalesce with right neighbour.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	// Coalesce with left neighbour.
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// FreeRuns returns the number of free extents (a fragmentation indicator).
func (a *Arena) FreeRuns() int { return len(a.free) }
