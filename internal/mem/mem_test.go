package mem

import (
	"testing"
	"testing/quick"

	"gem5prof/internal/sim"
)

// stubPort is a controllable downstream port recording traffic.
type stubPort struct {
	sys     *sim.System
	latency sim.Tick
	reqs    []Access
}

func (s *stubPort) SendTiming(acc Access, done func()) {
	s.reqs = append(s.reqs, acc)
	if done != nil {
		s.sys.ScheduleIn(sim.NewEvent("stub.resp", 0, done), s.latency)
	}
}

func (s *stubPort) AtomicLatency(acc Access) sim.Tick {
	s.reqs = append(s.reqs, acc)
	return s.latency
}

func testCacheCfg(name string) CacheConfig {
	return CacheConfig{
		Name:            name,
		SizeBytes:       1024, // 4 sets x 4 ways x 64B
		Ways:            4,
		BlockBytes:      64,
		HitLatency:      10,
		ResponseLatency: 5,
		MSHRs:           2,
	}
}

func newTestCache(t *testing.T) (*sim.System, *Cache, *stubPort) {
	t.Helper()
	sys := sim.NewSystem(1)
	stub := &stubPort{sys: sys, latency: 100}
	c := NewCache(sys, testCacheCfg("l1"), stub)
	return sys, c, stub
}

func TestCacheAtomicHitMiss(t *testing.T) {
	sys, c, stub := newTestCache(t)
	_ = sys
	lat := c.AtomicLatency(Access{Addr: 0x100, Size: 4})
	if lat != 10+100+5 {
		t.Fatalf("miss latency = %d", lat)
	}
	if c.Misses() != 1 || c.Hits() != 0 {
		t.Fatalf("counts: %d/%d", c.Hits(), c.Misses())
	}
	if len(stub.reqs) != 1 || stub.reqs[0].Addr != 0x100 || stub.reqs[0].Size != 64 {
		t.Fatalf("downstream req = %+v", stub.reqs)
	}
	// Same block now hits.
	lat = c.AtomicLatency(Access{Addr: 0x13C, Size: 4})
	if lat != 10 {
		t.Fatalf("hit latency = %d", lat)
	}
	if c.Hits() != 1 {
		t.Fatal("hit not counted")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	_, c, stub := newTestCache(t)
	// 4 ways in set 0: blocks at stride numSets*block = 4*64 = 256.
	for i := uint32(0); i < 4; i++ {
		c.AtomicLatency(Access{Addr: i * 256, Size: 4})
	}
	if c.Misses() != 4 {
		t.Fatalf("misses = %d", c.Misses())
	}
	// Touch block 0 to make block 1 the LRU victim.
	c.AtomicLatency(Access{Addr: 0, Size: 4})
	// A fifth block evicts block at 256 (LRU), not block 0.
	c.AtomicLatency(Access{Addr: 4 * 256, Size: 4})
	c.AtomicLatency(Access{Addr: 0, Size: 4})
	if c.Misses() != 5 {
		t.Fatalf("block 0 was evicted; misses = %d", c.Misses())
	}
	c.AtomicLatency(Access{Addr: 256, Size: 4})
	if c.Misses() != 6 {
		t.Fatalf("block 256 should have been evicted; misses = %d", c.Misses())
	}
	_ = stub
}

func TestCacheWriteback(t *testing.T) {
	_, c, stub := newTestCache(t)
	// Dirty a block in set 0.
	c.AtomicLatency(Access{Addr: 0, Size: 4, Write: true})
	// Fill the set, then evict the dirty block.
	for i := uint32(1); i <= 4; i++ {
		c.AtomicLatency(Access{Addr: i * 256, Size: 4})
	}
	if c.Writebacks() != 1 {
		t.Fatalf("writebacks = %d", c.Writebacks())
	}
	// The writeback must target block address 0.
	var wb *Access
	for i := range stub.reqs {
		if stub.reqs[i].Write {
			wb = &stub.reqs[i]
		}
	}
	if wb == nil || wb.Addr != 0 || wb.Size != 64 {
		t.Fatalf("writeback req = %+v", wb)
	}
}

func TestCacheTimingHit(t *testing.T) {
	sys, c, _ := newTestCache(t)
	c.AtomicLatency(Access{Addr: 0x40, Size: 4}) // prefill
	doneAt := sim.Tick(0)
	c.SendTiming(Access{Addr: 0x40, Size: 4}, func() { doneAt = sys.Now() })
	sys.Run(sim.MaxTick, 0)
	if doneAt != 10 {
		t.Fatalf("hit completion at %d, want 10", doneAt)
	}
}

func TestCacheTimingMissAndCoalesce(t *testing.T) {
	sys, c, stub := newTestCache(t)
	var done1, done2 sim.Tick
	c.SendTiming(Access{Addr: 0x80, Size: 4}, func() { done1 = sys.Now() })
	c.SendTiming(Access{Addr: 0x84, Size: 4, Write: true}, func() { done2 = sys.Now() })
	sys.Run(sim.MaxTick, 0)
	// Request path 10, downstream 100, response 5.
	if done1 != 115 || done2 != 115 {
		t.Fatalf("completions at %d/%d, want 115", done1, done2)
	}
	if c.Misses() != 1 {
		t.Fatalf("misses = %d (coalescing broken)", c.Misses())
	}
	if got := c.hits.Count(); got != 0 {
		t.Fatalf("hits = %d", got)
	}
	if c.mshrHits.Count() != 1 {
		t.Fatalf("mshrHits = %d", c.mshrHits.Count())
	}
	if len(stub.reqs) != 1 {
		t.Fatalf("downstream fetched %d times", len(stub.reqs))
	}
	// The coalesced write must have dirtied the line → later eviction writes back.
	for i := uint32(1); i <= 4; i++ {
		c.AtomicLatency(Access{Addr: 0x80 + i*256, Size: 4})
	}
	if c.Writebacks() != 1 {
		t.Fatal("coalesced store did not dirty the line")
	}
}

func TestCacheMSHRLimitQueues(t *testing.T) {
	sys, c, _ := newTestCache(t)
	var completions []sim.Tick
	record := func() { completions = append(completions, sys.Now()) }
	// 3 distinct blocks with only 2 MSHRs.
	c.SendTiming(Access{Addr: 0 * 64, Size: 4}, record)
	c.SendTiming(Access{Addr: 1 * 64, Size: 4}, record)
	c.SendTiming(Access{Addr: 2 * 64, Size: 4}, record)
	if c.OutstandingMisses() != 2 {
		t.Fatalf("outstanding = %d, want 2", c.OutstandingMisses())
	}
	sys.Run(sim.MaxTick, 0)
	if len(completions) != 3 {
		t.Fatalf("completions = %v", completions)
	}
	// The third must complete strictly after the first two.
	if completions[2] <= completions[0] {
		t.Fatalf("queued request completed too early: %v", completions)
	}
	if c.Misses() != 3 {
		t.Fatalf("misses = %d", c.Misses())
	}
}

func TestCacheNilDoneWriteback(t *testing.T) {
	sys, c, _ := newTestCache(t)
	c.SendTiming(Access{Addr: 0x200, Size: 64, Write: true}, nil)
	sys.Run(sim.MaxTick, 0) // must not panic
}

func TestCachePrefetcher(t *testing.T) {
	sys := sim.NewSystem(1)
	stub := &stubPort{sys: sys, latency: 100}
	cfg := testCacheCfg("l1p")
	cfg.NextLine = true
	cfg.MSHRs = 4
	c := NewCache(sys, cfg, stub)
	c.SendTiming(Access{Addr: 0x0, Size: 4}, func() {})
	sys.Run(sim.MaxTick, 0)
	if c.prefetches.Count() != 1 {
		t.Fatalf("prefetches = %d", c.prefetches.Count())
	}
	// The next line should now hit without a new miss.
	before := c.Misses()
	lat := c.AtomicLatency(Access{Addr: 0x40, Size: 4})
	if lat != 10 || c.Misses() != before {
		t.Fatalf("prefetched line missed (lat=%d)", lat)
	}
}

func TestCacheConfigValidation(t *testing.T) {
	sys := sim.NewSystem(1)
	stub := &stubPort{sys: sys}
	bad := []CacheConfig{
		{Name: "b1", SizeBytes: 0, Ways: 1, BlockBytes: 64, MSHRs: 1},
		{Name: "b2", SizeBytes: 1024, Ways: 1, BlockBytes: 60, MSHRs: 1},
		{Name: "b3", SizeBytes: 1000, Ways: 1, BlockBytes: 64, MSHRs: 1},
		{Name: "b4", SizeBytes: 1024, Ways: 1, BlockBytes: 64, MSHRs: 0},
		{Name: "b5", SizeBytes: 192 * 64, Ways: 1, BlockBytes: 64, MSHRs: 1}, // 192 sets
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %s did not panic", cfg.Name)
				}
			}()
			NewCache(sys, cfg, stub)
		}()
	}
}

// TestCacheWorkingSetProperty: any access pattern confined to a working set
// no larger than one way-set never misses twice on the same block (with LRU
// and a single set's capacity not exceeded).
func TestCacheWorkingSetProperty(t *testing.T) {
	f := func(seq []uint8) bool {
		sys := sim.NewSystem(2)
		stub := &stubPort{sys: sys, latency: 1}
		c := NewCache(sys, testCacheCfg("prop"), stub)
		// Working set: 4 blocks that all map to set 0 (= ways). LRU
		// guarantees they co-reside after first touch.
		blocks := []uint32{0, 256, 512, 768}
		seen := map[uint32]bool{}
		coldMisses := 0
		for _, s := range seq {
			b := blocks[int(s)%len(blocks)]
			if !seen[b] {
				seen[b] = true
				coldMisses++
			}
			c.AtomicLatency(Access{Addr: b, Size: 4})
		}
		return c.Misses() == uint64(coldMisses)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBusTiming(t *testing.T) {
	sys := sim.NewSystem(1)
	stub := &stubPort{sys: sys, latency: 50}
	bus := NewBus(sys, BusConfig{Name: "bus", Latency: 10, TicksPerByte: 1}, stub)
	var d1, d2 sim.Tick
	bus.SendTiming(Access{Addr: 0, Size: 64}, func() { d1 = sys.Now() })
	bus.SendTiming(Access{Addr: 64, Size: 64}, func() { d2 = sys.Now() })
	sys.Run(sim.MaxTick, 0)
	// First: 10 + 64 + 50 = 124. Second waits 64 ticks of occupancy.
	if d1 != 124 {
		t.Fatalf("d1 = %d", d1)
	}
	if d2 != 124+64 {
		t.Fatalf("d2 = %d, want %d", d2, 124+64)
	}
	if bus.BytesMoved() != 128 {
		t.Fatalf("bytes = %d", bus.BytesMoved())
	}
}

func TestBusAtomic(t *testing.T) {
	sys := sim.NewSystem(1)
	stub := &stubPort{sys: sys, latency: 50}
	bus := NewBus(sys, BusConfig{Name: "bus", Latency: 10, TicksPerByte: 2}, stub)
	lat := bus.AtomicLatency(Access{Addr: 0, Size: 8})
	if lat != 10+16+50 {
		t.Fatalf("atomic = %d", lat)
	}
}

func TestDRAMRowBuffer(t *testing.T) {
	sys := sim.NewSystem(1)
	d := NewDRAM(sys, DRAMConfig{
		Name: "dram", Banks: 2, RowBytes: 1024,
		RowHitLatency: 15, RowMissLatency: 45, TicksPerByte: 0,
	})
	// First access to a row: conflict.
	if lat := d.AtomicLatency(Access{Addr: 0, Size: 64}); lat != 45 {
		t.Fatalf("first = %d", lat)
	}
	// Same row: hit.
	if lat := d.AtomicLatency(Access{Addr: 512, Size: 64}); lat != 15 {
		t.Fatalf("same row = %d", lat)
	}
	// Different row, same bank (rows 0 and 2 both map to bank 0).
	if lat := d.AtomicLatency(Access{Addr: 2048, Size: 64}); lat != 45 {
		t.Fatalf("conflict = %d", lat)
	}
	if d.RowHitRate() != 1.0/3.0 {
		t.Fatalf("hit rate = %v", d.RowHitRate())
	}
	if d.Reads() != 3 || d.Writes() != 0 || d.BytesMoved() != 192 {
		t.Fatal("dram accounting wrong")
	}
}

func TestDRAMTimingQueueing(t *testing.T) {
	sys := sim.NewSystem(1)
	d := NewDRAM(sys, DRAMConfig{
		Name: "dram", Banks: 2, RowBytes: 1024,
		RowHitLatency: 10, RowMissLatency: 30, TicksPerByte: 0,
	})
	var d1, d2, d3 sim.Tick
	d.SendTiming(Access{Addr: 0, Size: 64}, func() { d1 = sys.Now() })    // bank 0, miss: 30
	d.SendTiming(Access{Addr: 512, Size: 64}, func() { d2 = sys.Now() })  // bank 0, hit, queued: 30+10
	d.SendTiming(Access{Addr: 1024, Size: 64}, func() { d3 = sys.Now() }) // bank 1, miss, parallel: 30
	sys.Run(sim.MaxTick, 0)
	if d1 != 30 || d2 != 40 || d3 != 30 {
		t.Fatalf("completions = %d %d %d", d1, d2, d3)
	}
}

func TestDefaultHierarchy(t *testing.T) {
	sys := sim.NewSystem(1)
	h := NewMultiHierarchy(sys, DefaultHierarchyConfig("sys"), 1)
	// A demand load misses L1D and L2, reaches DRAM.
	lat := h.L1D[0].AtomicLatency(Access{Addr: 0x1000, Size: 4})
	if lat == 0 {
		t.Fatal("zero miss latency")
	}
	if h.L1D[0].Misses() != 1 || h.L2.Misses() != 1 || h.DRAM.Reads() != 1 {
		t.Fatal("miss did not propagate")
	}
	// Second access hits in L1.
	lat2 := h.L1D[0].AtomicLatency(Access{Addr: 0x1004, Size: 4})
	if lat2 >= lat {
		t.Fatalf("hit latency %d not better than miss %d", lat2, lat)
	}
	// Instruction side is separate.
	h.L1I[0].AtomicLatency(Access{Addr: 0x1000, Size: 4, Inst: true})
	if h.L1I[0].Misses() != 1 {
		t.Fatal("L1I should miss independently")
	}
	if h.L2.Hits() != 1 {
		t.Fatalf("L2 hits = %d (L1I miss should hit L2)", h.L2.Hits())
	}
	// Timing path end-to-end.
	fired := false
	h.L1D[0].SendTiming(Access{Addr: 0x100000, Size: 8, Write: true}, func() { fired = true })
	sys.Run(sim.MaxTick, 0)
	if !fired {
		t.Fatal("timing access never completed")
	}
	if sys.Now() == 0 {
		t.Fatal("no time elapsed")
	}
}

func TestCacheMissRate(t *testing.T) {
	_, c, _ := newTestCache(t)
	if c.MissRate() != 0 {
		t.Fatal("empty miss rate")
	}
	c.AtomicLatency(Access{Addr: 0, Size: 4})
	c.AtomicLatency(Access{Addr: 0, Size: 4})
	c.AtomicLatency(Access{Addr: 4, Size: 4})
	if got := c.MissRate(); got != 1.0/3.0 {
		t.Fatalf("miss rate = %v", got)
	}
}
