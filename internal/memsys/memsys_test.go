package memsys

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"unimem/internal/machine"
)

func TestArenaAllocFree(t *testing.T) {
	a := NewArena(1000)
	off1, err := a.Alloc(100)
	if err != nil || off1 != 0 {
		t.Fatalf("first alloc: off=%d err=%v", off1, err)
	}
	off2, err := a.Alloc(200)
	if err != nil || off2 != 100 {
		t.Fatalf("second alloc: off=%d err=%v", off2, err)
	}
	if a.Used() != 300 || a.Avail() != 700 {
		t.Fatalf("used=%d avail=%d", a.Used(), a.Avail())
	}
	a.Free(off1, 100)
	if a.Used() != 200 {
		t.Fatalf("used after free = %d", a.Used())
	}
	// First-fit should reuse the hole.
	off3, err := a.Alloc(50)
	if err != nil || off3 != 0 {
		t.Fatalf("hole reuse: off=%d err=%v", off3, err)
	}
}

func TestArenaExhaustion(t *testing.T) {
	a := NewArena(100)
	if _, err := a.Alloc(101); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized alloc: %v", err)
	}
	if _, err := a.Alloc(100); err != nil {
		t.Fatalf("exact-fit alloc failed: %v", err)
	}
	if _, err := a.Alloc(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("alloc from full arena: %v", err)
	}
}

func TestArenaFragmentationAndCoalescing(t *testing.T) {
	a := NewArena(300)
	o1, _ := a.Alloc(100)
	o2, _ := a.Alloc(100)
	o3, _ := a.Alloc(100)
	a.Free(o1, 100)
	a.Free(o3, 100)
	if a.FreeRuns() != 2 {
		t.Fatalf("free runs = %d, want 2 (fragmented)", a.FreeRuns())
	}
	// A 200-byte request cannot be satisfied despite 200 free bytes.
	if _, err := a.Alloc(200); !errors.Is(err, ErrNoSpace) {
		t.Fatal("fragmented arena should refuse contiguous 200")
	}
	a.Free(o2, 100)
	if a.FreeRuns() != 1 {
		t.Fatalf("free runs after coalescing = %d, want 1", a.FreeRuns())
	}
	if _, err := a.Alloc(300); err != nil {
		t.Fatalf("full-capacity alloc after coalesce: %v", err)
	}
}

func TestArenaDoubleFreePanics(t *testing.T) {
	a := NewArena(100)
	off, _ := a.Alloc(50)
	a.Free(off, 50)
	defer func() {
		if recover() == nil {
			t.Fatal("double free should panic")
		}
	}()
	a.Free(off, 50)
}

// TestArenaInvariant property-checks that any interleaving of allocs and
// frees preserves used+free accounting and never hands out overlapping
// extents.
func TestArenaInvariant(t *testing.T) {
	type op struct {
		Size uint16
	}
	f := func(ops []op) bool {
		a := NewArena(1 << 16)
		type ext struct{ off, size int64 }
		var live []ext
		for i, o := range ops {
			size := int64(o.Size%2048) + 1
			if i%3 == 2 && len(live) > 0 {
				// Free the oldest live extent.
				e := live[0]
				live = live[1:]
				a.Free(e.off, e.size)
				continue
			}
			off, err := a.Alloc(size)
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				return false
			}
			for _, e := range live {
				if off < e.off+e.size && e.off < off+size {
					return false // overlap
				}
			}
			live = append(live, ext{off, size})
		}
		var used int64
		for _, e := range live {
			used += e.size
		}
		return used == a.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNodeServiceBudget(t *testing.T) {
	s := NewNodeService(1000)
	if _, err := s.Alloc(600); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(500); !errors.Is(err, ErrNoSpace) {
		t.Fatal("over-budget alloc should fail")
	}
	// Page-budget accounting: no fragmentation — 400 still fits.
	if _, err := s.Alloc(400); err != nil {
		t.Fatalf("budget has room: %v", err)
	}
	s.Free(0, 600)
	if s.Used() != 400 || s.Avail() != 600 {
		t.Fatalf("used=%d avail=%d", s.Used(), s.Avail())
	}
}

func TestNodeServiceConcurrentRanks(t *testing.T) {
	// Many goroutine "ranks" hammer one node service; the invariant is
	// that the budget never goes negative or over capacity.
	s := NewNodeService(1 << 20)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if _, err := s.Alloc(128); err == nil {
					s.Free(0, 128)
				}
			}
		}()
	}
	wg.Wait()
	if s.Used() != 0 {
		t.Fatalf("leaked %d bytes", s.Used())
	}
}

func newTestHeap(t *testing.T, dram int64) *Heap {
	t.Helper()
	m := machine.PlatformA().WithDRAMCapacity(dram)
	return NewHeap(m, NewNodeTiers(m), HeapOptions{})
}

func TestHeapAllocAndLookup(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	o, err := h.Alloc("x", 10<<20, AllocOptions{InitialTier: machine.NVM})
	if err != nil {
		t.Fatal(err)
	}
	if h.Lookup("x") != o {
		t.Fatal("lookup failed")
	}
	if len(o.Chunks) != 1 {
		t.Fatalf("unpartitioned object has %d chunks", len(o.Chunks))
	}
	if o.Chunks[0].Tier() != machine.NVM {
		t.Fatal("initial tier wrong")
	}
	if _, err := h.Alloc("x", 1<<20, AllocOptions{}); err == nil {
		t.Fatal("duplicate name should fail")
	}
}

func TestHeapDRAMFallback(t *testing.T) {
	h := newTestHeap(t, 8<<20)
	// Requesting DRAM beyond capacity falls back to NVM.
	o, err := h.Alloc("big", 32<<20, AllocOptions{InitialTier: machine.DRAM})
	if err != nil {
		t.Fatal(err)
	}
	if o.Chunks[0].Tier() != machine.NVM {
		t.Fatal("oversized DRAM request should fall back to NVM")
	}
}

func TestHeapPartitioning(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	o, err := h.Alloc("p", 100<<20, AllocOptions{
		Partitionable: true, ChunkSize: 32 << 20, InitialTier: machine.NVM,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Chunks) != 4 { // 32+32+32+4
		t.Fatalf("chunk count = %d, want 4", len(o.Chunks))
	}
	var total int64
	for i, c := range o.Chunks {
		total += c.Size
		if c.Index != i {
			t.Errorf("chunk %d has index %d", i, c.Index)
		}
		if c.Name() == o.Name {
			t.Error("partitioned chunks need indexed names")
		}
	}
	if total != o.Size {
		t.Fatalf("chunk sizes sum to %d, want %d", total, o.Size)
	}
	if o.Chunks[3].Size != 4<<20 {
		t.Fatalf("tail chunk size = %d", o.Chunks[3].Size)
	}
}

// tierUsed returns the bytes reserved in tier k's space manager: the
// node's shared service or the rank's private arena.
func tierUsed(h *Heap, k machine.TierKind) int64 {
	return h.allocs[k].(interface{ Used() int64 }).Used()
}

// TestMoveChunkAccounting walks one chunk 0→2→1→1 on a three-tier heap
// and checks, after every move, the bytes returned, every migration
// counter and the reservations of the source and target tiers. The no-op
// move and an ErrNoSpace move must leave all of them unchanged (apart from
// FailedNoSpace).
func TestMoveChunkAccounting(t *testing.T) {
	m := machine.PlatformHBMDDRNVM()
	h := NewHeap(m, NewNodeTiers(m), HeapOptions{})
	const size = 8 << 20
	o, err := h.Alloc("m", size, AllocOptions{InitialTier: 0})
	if err != nil {
		t.Fatal(err)
	}
	c := o.Chunks[0]
	if c.Tier() != 0 || tierUsed(h, 0) != size {
		t.Fatalf("initial placement: tier %d, tier-0 used %d", c.Tier(), tierUsed(h, 0))
	}
	check := func(step string, want MigrationStats, used [3]int64) {
		t.Helper()
		st := h.StatsSnapshot()
		if st.Migrations != want.Migrations || st.BytesMigrated != want.BytesMigrated ||
			st.PointerRewrite != want.PointerRewrite || st.ToDRAM != want.ToDRAM ||
			st.ToNVM != want.ToNVM || st.FailedNoSpace != want.FailedNoSpace {
			t.Fatalf("%s: stats %+v, want %+v", step, st, want)
		}
		for k := range want.ToTier {
			if st.ToTier[k] != want.ToTier[k] {
				t.Fatalf("%s: per-tier arrivals %v, want %v", step, st.ToTier, want.ToTier)
			}
		}
		for k, u := range used {
			if got := tierUsed(h, machine.TierKind(k)); got != u {
				t.Fatalf("%s: tier %d used %d, want %d", step, k, got, u)
			}
		}
	}
	move := func(k machine.TierKind, wantN int64) {
		t.Helper()
		n, err := h.MoveChunk(c, k)
		if err != nil || n != wantN {
			t.Fatalf("move to %d: n=%d err=%v, want n=%d", k, n, err, wantN)
		}
		if c.Tier() != k {
			t.Fatalf("move to %d left the chunk in tier %d", k, c.Tier())
		}
	}

	move(2, size) // demotion 0 -> 2
	check("0->2", MigrationStats{Migrations: 1, BytesMigrated: size, PointerRewrite: 1,
		ToNVM: 1, ToTier: []int{0, 0, 1}}, [3]int64{0, 0, size})

	move(1, size) // promotion 2 -> 1
	after21 := MigrationStats{Migrations: 2, BytesMigrated: 2 * size, PointerRewrite: 2,
		ToDRAM: 1, ToNVM: 1, ToTier: []int{0, 1, 1}}
	check("2->1", after21, [3]int64{0, size, 0})

	move(1, 0) // already resident: no-op
	check("1->1", after21, [3]int64{0, size, 0})

	// Fill tier 0 so a promotion fails: the chunk, the counters and the
	// reservations must stay as they were.
	if _, err := h.Alloc("fill", m.Tier(0).CapacityBytes, AllocOptions{InitialTier: 0}); err != nil {
		t.Fatal(err)
	}
	if n, err := h.MoveChunk(c, 0); !errors.Is(err, ErrNoSpace) || n != 0 {
		t.Fatalf("move into full tier: n=%d err=%v", n, err)
	}
	if c.Tier() != 1 {
		t.Fatalf("failed move left the chunk in tier %d", c.Tier())
	}
	after21.FailedNoSpace = 1
	check("failed 1->0", after21, [3]int64{m.Tier(0).CapacityBytes, size, 0})
}

// TestMoveChunkAllocatesNothing guards against per-chunk real backing: a
// multi-GiB object and 200 migration round trips of a 32 MiB chunk must
// cost the Go heap almost nothing, because chunk sizes are simulated.
func TestMoveChunkAllocatesNothing(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := h.Alloc("big", 4<<30, AllocOptions{
		Partitionable: true, ChunkSize: 32 << 20, InitialTier: machine.NVM,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := o.Chunks[0]
	for i := 0; i < 200; i++ {
		if _, err := h.MoveChunk(c, machine.DRAM); err != nil {
			t.Fatal(err)
		}
		if _, err := h.MoveChunk(c, machine.NVM); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("allocating %d chunks and 400 moves allocated %d bytes of Go heap, want < 1 MiB",
			len(o.Chunks), grew)
	}
	if st := h.StatsSnapshot(); st.Migrations != 400 || st.BytesMigrated != 400*(32<<20) {
		t.Fatalf("stats %+v", st)
	}
}

func TestMoveChunkNoSpace(t *testing.T) {
	h := newTestHeap(t, 4<<20)
	o, _ := h.Alloc("m", 8<<20, AllocOptions{InitialTier: machine.NVM})
	_, err := h.MoveChunk(o.Chunks[0], machine.DRAM)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if o.Chunks[0].Tier() != machine.NVM {
		t.Fatal("failed move must leave chunk in place")
	}
	if h.StatsSnapshot().FailedNoSpace != 1 {
		t.Fatal("failure not counted")
	}
}

func TestMoveObjectAllChunks(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	o, _ := h.Alloc("p", 48<<20, AllocOptions{
		Partitionable: true, ChunkSize: 16 << 20, InitialTier: machine.NVM,
	})
	var moved int64
	for _, c := range o.Chunks {
		n, err := h.MoveChunk(c, machine.DRAM)
		if err != nil {
			t.Fatal(err)
		}
		moved += n
	}
	if moved != 48<<20 {
		t.Fatalf("moved %d bytes, want %d", moved, 48<<20)
	}
	if o.BytesIn(machine.DRAM) != o.Size || o.BytesIn(machine.NVM) != 0 {
		t.Fatalf("object residency DRAM=%d NVM=%d, want all in DRAM",
			o.BytesIn(machine.DRAM), o.BytesIn(machine.NVM))
	}
	if res := h.TierResidencyBytes(); res[machine.DRAM] != o.Size || res[machine.NVM] != 0 {
		t.Fatalf("per-tier residency %v", res)
	}
}

func TestFreeReleasesSpace(t *testing.T) {
	h := newTestHeap(t, 16<<20)
	o, _ := h.Alloc("f", 12<<20, AllocOptions{InitialTier: machine.DRAM})
	if h.DRAMService().Used() != 12<<20 {
		t.Fatal("DRAM not reserved")
	}
	h.Free(o)
	if h.DRAMService().Used() != 0 {
		t.Fatal("Free must release DRAM")
	}
	if h.Lookup("f") != nil {
		t.Fatal("freed object still registered")
	}
	if _, err := h.Alloc("f", 1<<20, AllocOptions{}); err != nil {
		t.Fatalf("name should be reusable after Free: %v", err)
	}
}

func TestResidencySnapshot(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	o1, _ := h.Alloc("d", 1<<20, AllocOptions{InitialTier: machine.DRAM})
	h.Alloc("n", 1<<20, AllocOptions{InitialTier: machine.NVM})
	snap := h.ResidencySnapshot()
	if !snap["d"] || snap["n"] {
		t.Fatalf("snapshot %v", snap)
	}
	h.MoveChunk(o1.Chunks[0], machine.NVM)
	if h.ResidencySnapshot()["d"] {
		t.Fatal("snapshot stale after move")
	}
}

func TestConcurrentMoveAndRead(t *testing.T) {
	// Helper-thread-style concurrent migration against residency readers;
	// run with -race to validate the locking discipline.
	h := newTestHeap(t, 64<<20)
	o, _ := h.Alloc("c", 1<<20, AllocOptions{InitialTier: machine.NVM})
	c := o.Chunks[0]
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			h.MoveChunk(c, machine.DRAM)
			h.MoveChunk(c, machine.NVM)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = h.TierOf(c)
			_ = h.ResidencySnapshot()
		}
	}()
	wg.Wait()
}

func TestMultiTierHeap(t *testing.T) {
	m := machine.PlatformHBMDDRNVM()
	h := NewHeap(m, NewNodeTiers(m), HeapOptions{})
	slow := m.SlowestIdx()
	// Default (zero-option) placement with InitialTier 0 cascades down the
	// hierarchy when the fast tiers are full.
	big, err := h.Alloc("big", m.Tier(0).CapacityBytes+m.Tier(1).CapacityBytes, AllocOptions{InitialTier: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := big.Chunks[0].Tier(); got != slow {
		t.Fatalf("oversized object landed in tier %d, want slowest %d", got, slow)
	}
	// A mid-tier allocation stays in the middle tier.
	mid, err := h.Alloc("mid", 64<<20, AllocOptions{InitialTier: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mid.Chunks[0].Tier() != 1 {
		t.Fatalf("mid-tier object in tier %d", mid.Chunks[0].Tier())
	}
	// Tier-to-tier migration records per-tier arrivals and promotion counts.
	if _, err := h.MoveChunk(mid.Chunks[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.MoveChunk(mid.Chunks[0], slow); err != nil {
		t.Fatal(err)
	}
	st := h.StatsSnapshot()
	if st.Migrations != 2 || st.ToDRAM != 1 || st.ToNVM != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.ToTier[0] != 1 || st.ToTier[slow] != 1 {
		t.Fatalf("per-tier arrivals %v", st.ToTier)
	}
	// Snapshots carry real tier indices.
	ts := h.TierSnapshot()
	if ts["mid"] != slow || ts["big"] != slow {
		t.Fatalf("tier snapshot %v", ts)
	}
	res := h.TierResidencyBytes()
	if res[0] != 0 || res[1] != 0 || res[slow] != big.Size+mid.Size {
		t.Fatalf("per-tier residency %v", res)
	}
}

func TestNodeTiersSharedAcrossRanks(t *testing.T) {
	// Two heaps on one node share the fast-tier allowances but keep
	// private slowest-tier arenas.
	m := machine.PlatformHBMDDRNVM()
	node := NewNodeTiers(m)
	h1 := NewHeap(m, node, HeapOptions{})
	h2 := NewHeap(m, node, HeapOptions{})
	cap0 := m.Tier(0).CapacityBytes
	if _, err := h1.Alloc("a", cap0, AllocOptions{InitialTier: 0}); err != nil {
		t.Fatal(err)
	}
	o, err := h2.Alloc("b", cap0, AllocOptions{InitialTier: 0})
	if err != nil {
		t.Fatal(err)
	}
	if o.Chunks[0].Tier() != 1 {
		t.Fatalf("rank 2 should cascade to the mid tier, got %d", o.Chunks[0].Tier())
	}
	if node.Service(0).Used() != cap0 || node.Service(1).Used() != cap0 {
		t.Fatalf("shared services wrong: %d %d", node.Service(0).Used(), node.Service(1).Used())
	}
	slow := m.SlowestIdx()
	if tierUsed(h1, slow) != 0 || tierUsed(h2, slow) != 0 {
		t.Fatalf("private slowest arenas should be empty: %d %d", tierUsed(h1, slow), tierUsed(h2, slow))
	}
}

func TestAllocRejectsUnknownTier(t *testing.T) {
	h := newTestHeap(t, 64<<20)
	if _, err := h.Alloc("oob", 1<<20, AllocOptions{InitialTier: 2}); err == nil {
		t.Fatal("out-of-range InitialTier must error, not return (nil, nil)")
	}
	if _, err := h.Alloc("neg", 1<<20, AllocOptions{InitialTier: -1}); err == nil {
		t.Fatal("negative InitialTier must error")
	}
}
