package cachesim

import (
	"testing"
	"testing/quick"
)

func small() Config { return Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4} }

func TestColdMissThenHit(t *testing.T) {
	c := New(small())
	if !c.Touch(Access{Addr: 0}) {
		t.Fatal("first access must miss (cold)")
	}
	if c.Touch(Access{Addr: 0}) {
		t.Fatal("second access to same line must hit")
	}
	if c.Touch(Access{Addr: 63}) {
		t.Fatal("same-line access must hit")
	}
	if !c.Touch(Access{Addr: 64}) {
		t.Fatal("next line must miss")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := small() // 8KiB/64B/4-way -> 32 sets
	c := New(cfg)
	nsets := cfg.SizeBytes / cfg.LineBytes / int64(cfg.Ways)
	setStride := nsets * cfg.LineBytes
	// Fill one set's 4 ways.
	for w := int64(0); w < 4; w++ {
		c.Touch(Access{Addr: w * setStride})
	}
	// Re-touch way 0 so way 1 becomes LRU, then insert a 5th line.
	c.Touch(Access{Addr: 0})
	c.Touch(Access{Addr: 4 * setStride})
	// Way 0 must still be resident; way 1 must have been evicted.
	if c.Touch(Access{Addr: 0}) {
		t.Fatal("MRU line was evicted")
	}
	if !c.Touch(Access{Addr: 1 * setStride}) {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestWritebackCounting(t *testing.T) {
	cfg := small()
	c := New(cfg)
	nsets := cfg.SizeBytes / cfg.LineBytes / int64(cfg.Ways)
	setStride := nsets * cfg.LineBytes
	c.Touch(Access{Addr: 0, Write: true}) // dirty line
	for w := int64(1); w <= 4; w++ {      // force eviction of the dirty line
		c.Touch(Access{Addr: w * setStride})
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestStreamMissesOncePerLine(t *testing.T) {
	c := New(DefaultLLC())
	// Stream 1 MiB at 8-byte stride: miss ratio should be ~1/8.
	var trace []Access
	for a := int64(0); a < 1<<20; a += 8 {
		trace = append(trace, Access{Addr: a})
	}
	c.Run(trace)
	st := c.Stats()
	mr := float64(st.Misses) / float64(st.Accesses)
	if mr < 0.11 || mr > 0.14 {
		t.Fatalf("stream miss ratio %v, want ~1/8", mr)
	}
}

func TestResidentSetHits(t *testing.T) {
	c := New(DefaultLLC())
	// A 1 MiB working set inside a 20 MiB cache: second pass must hit.
	var trace []Access
	for a := int64(0); a < 1<<20; a += 64 {
		trace = append(trace, Access{Addr: a})
	}
	c.Run(trace)
	if n := c.Run(trace); n != 0 {
		t.Fatalf("second pass had %d misses; working set fits", n)
	}
}

func TestHugeWorkingSetThrashes(t *testing.T) {
	c := New(DefaultLLC())
	// 64 MiB streamed twice through a 20 MiB cache: second pass misses too.
	var trace []Access
	for a := int64(0); a < 64<<20; a += 64 {
		trace = append(trace, Access{Addr: a})
	}
	first := c.Run(trace)
	second := c.Run(trace)
	if second < first/2 {
		t.Fatalf("second pass misses %d << first %d; LRU stream should thrash", second, first)
	}
}

func TestMissesNeverExceedAccesses(t *testing.T) {
	if err := quick.Check(func(addrs []uint16) bool {
		c := New(small())
		for _, a := range addrs {
			c.Touch(Access{Addr: int64(a)})
		}
		st := c.Stats()
		return st.Misses <= st.Accesses && st.Writebacks <= st.Evictions
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size cache should panic")
		}
	}()
	New(Config{})
}
