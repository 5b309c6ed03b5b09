package hostmodel

import (
	"fmt"
	"testing"

	"gem5prof/internal/sim"
)

// recordSink counts micro-events.
type recordSink struct {
	fetches  int
	branches int
	datas    int
	uops     uint64
	indirect int
	minAddr  uint64
	maxAddr  uint64
}

func (s *recordSink) FetchBlock(addr uint64, bytes uint32, uops uint32) {
	s.fetches++
	s.uops += uint64(uops)
	if s.minAddr == 0 || addr < s.minAddr {
		s.minAddr = addr
	}
	if addr > s.maxAddr {
		s.maxAddr = addr
	}
}

func (s *recordSink) Branch(pc, target uint64, taken, indirect bool) {
	s.branches++
	if indirect {
		s.indirect++
	}
}

func (s *recordSink) Data(addr uint64, size uint32, write bool) { s.datas++ }

func TestRegisterAndCall(t *testing.T) {
	sink := &recordSink{}
	m := New(DefaultConfig(), sink)
	fn := m.RegisterFunc("Cache::access", 1400, sim.FuncVirtual)
	if fn == 0 {
		t.Fatal("zero id")
	}
	// Primary + helpers registered.
	if m.NumFuncs() < DefaultConfig().CalleeFanout {
		t.Fatalf("numFuncs = %d", m.NumFuncs())
	}
	m.Call(fn)
	if sink.fetches == 0 || sink.uops == 0 {
		t.Fatal("no fetch events emitted")
	}
	if sink.datas == 0 {
		t.Fatal("no stack/heap traffic")
	}
	if m.Calls() == 0 || m.CalledFuncs() == 0 {
		t.Fatal("call accounting empty")
	}
	if m.FuncName(fn) != "Cache::access" {
		t.Fatalf("name = %q", m.FuncName(fn))
	}
	if m.FuncName(sim.FuncID(60000)) == "" {
		t.Fatal("out-of-range name empty")
	}
}

func TestVirtualFunctionsEmitIndirectBranches(t *testing.T) {
	sink := &recordSink{}
	m := New(DefaultConfig(), sink)
	v := m.RegisterFunc("Virt::f", 2000, sim.FuncVirtual)
	d := m.RegisterFunc("Direct::f", 2000, 0)
	m.Call(v)
	withVirtual := sink.indirect
	if withVirtual == 0 {
		t.Fatal("virtual function emitted no indirect branch")
	}
	sink.indirect = 0
	m.Call(d)
	if sink.indirect != 0 {
		t.Fatal("direct function emitted indirect branches")
	}
}

func TestLayoutScattersAndDoesNotOverlap(t *testing.T) {
	m := New(DefaultConfig(), &recordSink{})
	type span struct{ lo, hi uint64 }
	var spans []span
	for i := 0; i < 200; i++ {
		id := m.registerOne(fmt.Sprintf("f%d", i), 1000+i*17, 0, false)
		f := &m.funcs[id]
		spans = append(spans, span{f.addr, f.addr + uint64(f.size)})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("functions %d and %d overlap: %+v %+v", i, j, spans[i], spans[j])
			}
		}
	}
	// Consecutive registrations must land far apart (bit-reversed slots).
	adjacent := 0
	for i := 1; i < len(spans); i++ {
		d := spans[i].lo - spans[i-1].lo
		if d < (64 << 10) {
			adjacent++
		}
	}
	if adjacent > len(spans)/4 {
		t.Fatalf("layout too clustered: %d adjacent of %d", adjacent, len(spans))
	}
	lo, hi := m.TextRange()
	for _, s := range spans {
		if s.lo < lo || s.hi > hi {
			t.Fatal("function outside TextRange")
		}
	}
	if m.TextBytes() != hi-lo {
		t.Fatal("TextBytes inconsistent")
	}
}

func TestArenaOverflowFallsBackSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TextSlots = 8
	cfg.SlotBytes = 8 << 10
	m := New(cfg, &recordSink{})
	for i := 0; i < 40; i++ {
		m.registerOne(fmt.Sprintf("f%d", i), 500, 0, false)
	}
	lo, hi := m.TextRange()
	if hi <= lo+uint64(cfg.TextSlots)*cfg.SlotBytes {
		t.Fatal("overflow area not used")
	}
}

func TestDeterministicStream(t *testing.T) {
	gen := func() (int, uint64) {
		sink := &recordSink{}
		m := New(DefaultConfig(), sink)
		a := m.RegisterFunc("a", 1500, sim.FuncVirtual)
		b := m.RegisterFunc("b", 900, sim.FuncHot)
		for i := 0; i < 100; i++ {
			m.Call(a)
			m.Call(b)
		}
		return sink.fetches, sink.uops
	}
	f1, u1 := gen()
	f2, u2 := gen()
	if f1 != f2 || u1 != u2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", f1, u1, f2, u2)
	}
}

func TestSizeFactorShrinksWork(t *testing.T) {
	count := func(factor float64) uint64 {
		cfg := DefaultConfig()
		cfg.SizeFactor = factor
		sink := &recordSink{}
		m := New(cfg, sink)
		fn := m.RegisterFunc("f", 4000, 0)
		for i := 0; i < 50; i++ {
			m.Call(fn)
		}
		return sink.uops
	}
	if o3, base := count(0.8), count(1.0); o3 >= base {
		t.Fatalf("smaller binary should execute fewer uops: %d vs %d", o3, base)
	}
}

func TestAllocData(t *testing.T) {
	m := New(DefaultConfig(), &recordSink{})
	a := m.AllocData("x", 100)
	b := m.AllocData("y", 100)
	if b <= a {
		t.Fatal("allocations not advancing")
	}
	lo, hi := m.HeapRange()
	if a < lo || b >= hi+200 {
		t.Fatal("allocation outside heap range")
	}
}

func TestCallRotatesHelpers(t *testing.T) {
	sink := &recordSink{}
	m := New(DefaultConfig(), sink)
	fn := m.RegisterFunc("parent", 3000, sim.FuncVirtual)
	// Helper selection rotates once per 8 calls; a few hundred calls must
	// exercise the whole retinue.
	for i := 0; i < 400; i++ {
		m.Call(fn)
	}
	// Over many calls, all helpers should eventually execute.
	called := m.CalledFuncs()
	want := 1 + DefaultConfig().CalleeFanout
	if called < want {
		t.Fatalf("called %d distinct funcs, want >= %d", called, want)
	}
}

func TestProfilerHook(t *testing.T) {
	sink := &recordSink{}
	m := New(DefaultConfig(), sink)
	var enters, leaves int
	m.SetProfiler(profFns{
		enter: func(fn sim.FuncID) { enters++ },
		leave: func(fn sim.FuncID) { leaves++ },
	})
	fn := m.RegisterFunc("f", 2000, 0)
	m.Call(fn)
	if enters == 0 || enters != leaves {
		t.Fatalf("enter/leave = %d/%d", enters, leaves)
	}
}

type profFns struct {
	enter func(sim.FuncID)
	leave func(sim.FuncID)
}

func (p profFns) Enter(fn sim.FuncID) { p.enter(fn) }
func (p profFns) Leave(fn sim.FuncID) { p.leave(fn) }

func TestBadSlotConfigPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TextSlots = 100 // not a power of two
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(cfg, &recordSink{})
}

func TestBitReverse(t *testing.T) {
	if bitReverse(1, 4) != 8 || bitReverse(8, 4) != 1 || bitReverse(0b1011, 4) != 0b1101 {
		t.Fatal("bitReverse wrong")
	}
	// Property: involution.
	for v := uint64(0); v < 256; v++ {
		if bitReverse(bitReverse(v, 8), 8) != v {
			t.Fatalf("not an involution at %d", v)
		}
	}
}
