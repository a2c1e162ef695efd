package trace

import (
	"testing"

	"unimem/internal/cachesim"
	"unimem/internal/machine"
	"unimem/internal/memsys"
	"unimem/internal/xrand"
)

func chunkOfSize(t *testing.T, size int64) *memsys.Chunk {
	t.Helper()
	m := machine.PlatformA()
	h := memsys.NewHeap(m, memsys.NewNodeTiers(m), memsys.HeapOptions{})
	o, err := h.Alloc("obj", size, memsys.AllocOptions{InitialTier: machine.NVM})
	if err != nil {
		t.Fatal(err)
	}
	return o.Chunks[0]
}

func TestGenAddressesInRange(t *testing.T) {
	c := chunkOfSize(t, 1<<20)
	rng := xrand.New(1)
	for _, p := range []machine.Pattern{machine.Stream, machine.Stencil, machine.Random, machine.PointerChase} {
		for _, a := range Gen(c, p, 5000, 0.3, rng) {
			if a.Addr < c.SimAddr || a.Addr >= c.SimAddr+c.Size {
				t.Fatalf("%v: address %d outside chunk [%d,%d)", p, a.Addr, c.SimAddr, c.SimAddr+c.Size)
			}
		}
	}
}

func TestGenLength(t *testing.T) {
	c := chunkOfSize(t, 1<<20)
	rng := xrand.New(2)
	for _, p := range []machine.Pattern{machine.Stream, machine.Stencil, machine.Random, machine.PointerChase} {
		if got := len(Gen(c, p, 1234, 0.5, rng)); got != 1234 {
			t.Fatalf("%v: generated %d accesses, want 1234", p, got)
		}
	}
	if len(Gen(c, machine.Stream, 0, 0, rng)) != 0 {
		t.Fatal("zero-length trace")
	}
}

func TestWriteFraction(t *testing.T) {
	c := chunkOfSize(t, 1<<20)
	tr := Gen(c, machine.Random, 20000, 0.25, xrand.New(3))
	writes := 0
	for _, a := range tr {
		if a.Write {
			writes++
		}
	}
	frac := float64(writes) / float64(len(tr))
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("write fraction %v, want ~0.25", frac)
	}
}

// TestStreamMissModel cross-validates the workloads' analytic traffic
// model against the cache simulator: a streaming sweep over a large object
// misses roughly once per cache line.
func TestStreamMissModel(t *testing.T) {
	c := chunkOfSize(t, 64<<20)
	llc := cachesim.New(cachesim.DefaultLLC())
	n := 1 << 20 // 8 MiB worth of 8-byte stream accesses
	misses := llc.Run(Gen(c, machine.Stream, n, 0, xrand.New(4)))
	perLine := float64(misses) / (float64(n) / 8)
	if perLine < 0.9 || perLine > 1.1 {
		t.Fatalf("stream misses/line = %v, want ~1", perLine)
	}
}

// TestPointerChaseMissModel validates that dependent chains over a large
// object miss nearly always (the latency-sensitive regime of §2.2).
func TestPointerChaseMissModel(t *testing.T) {
	c := chunkOfSize(t, 256<<20)
	llc := cachesim.New(cachesim.DefaultLLC())
	n := 200000
	misses := llc.Run(Gen(c, machine.PointerChase, n, 0, xrand.New(5)))
	ratio := float64(misses) / float64(n)
	if ratio < 0.8 {
		t.Fatalf("pointer-chase miss ratio %v, want near 1", ratio)
	}
}

// TestSmallObjectCached validates the attenuation floor: repeated random
// access to a cache-resident object stops missing after warmup.
func TestSmallObjectCached(t *testing.T) {
	c := chunkOfSize(t, 4<<20) // well under the 20 MiB LLC
	llc := cachesim.New(cachesim.DefaultLLC())
	warm := Gen(c, machine.Random, 200000, 0, xrand.New(6))
	llc.Run(warm)
	probe := Gen(c, machine.Random, 50000, 0, xrand.New(7))
	misses := llc.Run(probe)
	ratio := float64(misses) / float64(len(probe))
	if ratio > 0.1 {
		t.Fatalf("cache-resident object miss ratio %v, want near 0", ratio)
	}
}

func TestInterleave(t *testing.T) {
	a := []cachesim.Access{{Addr: 1}, {Addr: 2}}
	b := []cachesim.Access{{Addr: 10}, {Addr: 20}, {Addr: 30}}
	out := Interleave(a, b)
	if len(out) != 5 {
		t.Fatalf("interleaved length %d", len(out))
	}
	if out[0].Addr != 1 || out[1].Addr != 10 || out[2].Addr != 2 || out[3].Addr != 20 || out[4].Addr != 30 {
		t.Fatalf("round-robin order wrong: %v", out)
	}
}
