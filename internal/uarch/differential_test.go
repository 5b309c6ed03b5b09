package uarch

// Differential tests: the flattened cache and the O(1) exact-LRU TLB
// must be indistinguishable from the naive implementations they replaced
// — hit-for-hit, miss-for-miss, and victim-for-victim — on randomized
// access streams. The naive models below are verbatim ports of the
// pre-refactor structures (slice-of-slices sets with a per-access
// popcount; scan-based fully-associative LRU entry file).

import (
	"fmt"
	"math/rand"
	"testing"
)

// naivePopcount is the hand-rolled bit count the old cache used on every
// access; kept here so the reference model is a faithful replica.
func naivePopcount(mask uint64) uint {
	var n uint
	for mask != 0 {
		n += uint(mask & 1)
		mask >>= 1
	}
	return n
}

// cacheLine is the pre-refactor array-of-structs cache line.
type cacheLine struct {
	tag   uint64
	valid bool
	lru   uint64
}

// naiveCache is the pre-refactor set-associative LRU cache.
type naiveCache struct {
	sets     [][]cacheLine
	setMask  uint64
	lineBits uint
	seq      uint64
}

func newNaiveCache(g CacheGeom) *naiveCache {
	sets := g.Sets()
	c := &naiveCache{setMask: sets - 1}
	for g.LineBytes>>c.lineBits > 1 {
		c.lineBits++
	}
	c.sets = make([][]cacheLine, sets)
	for i := range c.sets {
		c.sets[i] = make([]cacheLine, g.Ways)
	}
	return c
}

// access returns (hit, evictedTag, evictedValid) for one reference.
func (c *naiveCache) access(addr uint64) (bool, uint64, bool) {
	block := addr >> c.lineBits
	set := c.sets[block&c.setMask]
	tag := block >> naivePopcount(c.setMask)
	c.seq++
	victim := &set[0]
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lru = c.seq
			return true, 0, false
		}
		if !l.valid {
			victim = l
		} else if victim.valid && l.lru < victim.lru {
			victim = l
		}
	}
	evTag, evOK := victim.tag, victim.valid
	victim.tag = tag
	victim.valid = true
	victim.lru = c.seq
	return false, evTag, evOK
}

// naiveTLB is the pre-refactor scan-based fully-associative LRU TLB.
type naiveTLB struct {
	entries []struct {
		page, lru uint64
		valid     bool
	}
	seq uint64
}

func newNaiveTLB(entries int) *naiveTLB {
	t := &naiveTLB{}
	t.entries = make([]struct {
		page, lru uint64
		valid     bool
	}, entries)
	return t
}

func (t *naiveTLB) access(page uint64) (bool, uint64, bool) {
	t.seq++
	victim := &t.entries[0]
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.page == page {
			e.lru = t.seq
			return true, 0, false
		}
		if !e.valid {
			victim = e
		} else if victim.valid && e.lru < victim.lru {
			victim = e
		}
	}
	evPage, evOK := victim.page, victim.valid
	victim.page = page
	victim.valid = true
	victim.lru = t.seq
	return false, evPage, evOK
}

// differentialGeoms are the cache geometries the differential test and
// FuzzCacheDifferential compare against the naive reference.
var differentialGeoms = []CacheGeom{
	{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64},     // 8 sets
	{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},    // L1-like
	{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64},    // L2-like
	{SizeBytes: 48 << 10, Ways: 12, LineBytes: 64},   // non-power-of-two ways
	{SizeBytes: 2 << 10, Ways: 1, LineBytes: 32},     // direct-mapped
	{SizeBytes: 192 << 10, Ways: 12, LineBytes: 128}, // M1-class L1I
}

// tagZeroPrefix returns addresses that fill block 0 (tag 0 of set 0),
// hit it, then evict it by filling set 0 with ways more blocks: under the
// tag+1 encoding tag 0 must miss when cold, hit when resident, and be
// reported as the evicted tag 0 rather than confused with an empty way.
func tagZeroPrefix(g CacheGeom) []uint64 {
	stride := g.Sets() * g.LineBytes
	addrs := []uint64{0, g.LineBytes - 1}
	for k := 1; k <= g.Ways; k++ {
		addrs = append(addrs, uint64(k)*stride)
	}
	return append(addrs, 0)
}

// stepCache feeds addr to c and ref, then probes p on both, and describes
// the first disagreement ("" when they agree).
func stepCache(c *cache, ref *naiveCache, addr, p uint64) string {
	c.evictedOK = false
	gotHit := c.access(addr)
	wantHit, wantEv, wantEvOK := ref.access(addr)
	if gotHit != wantHit || c.evictedOK != wantEvOK ||
		(wantEvOK && c.evictedTag != wantEv) {
		return fmt.Sprintf("addr %#x: got (hit=%v ev=%#x,%v) want (hit=%v ev=%#x,%v)",
			addr, gotHit, c.evictedTag, c.evictedOK, wantHit, wantEv, wantEvOK)
	}
	// probe must agree with a state-preserving membership check.
	if got, want := c.probe(p), refProbe(ref, p); got != want {
		return fmt.Sprintf("probe(%#x) = %v, want %v", p, got, want)
	}
	return ""
}

// TestCacheDifferential drives the flattened cache and the naive
// reference with identical randomized streams across several geometries,
// comparing hit/miss and eviction victims on every access.
func TestCacheDifferential(t *testing.T) {
	for gi, g := range differentialGeoms {
		c := newCache(g)
		ref := newNaiveCache(g)
		sawTagZeroEviction := false
		for i, addr := range tagZeroPrefix(g) {
			if msg := stepCache(c, ref, addr, 0); msg != "" {
				t.Fatalf("geom %d tag-0 step %d: %s", gi, i, msg)
			}
			sawTagZeroEviction = sawTagZeroEviction || (c.evictedOK && c.evictedTag == 0)
		}
		if !sawTagZeroEviction {
			t.Fatalf("geom %d: tag-0 prefix never evicted tag 0", gi)
		}
		rng := rand.New(rand.NewSource(int64(gi) + 42))
		footprint := 4 * g.SizeBytes
		var prev uint64
		for i := 0; i < 60000; i++ {
			addr := rng.Uint64() % footprint
			switch rng.Intn(4) {
			case 0:
				addr = rng.Uint64() % (g.SizeBytes / 4) // hot subset
			case 1:
				addr = prev ^ rng.Uint64()%g.LineBytes // repeat the previous block
			}
			prev = addr
			if msg := stepCache(c, ref, addr, rng.Uint64()%footprint); msg != "" {
				t.Fatalf("geom %d step %d: %s", gi, i, msg)
			}
		}
	}
}

// FuzzCacheDifferential compares the cache with the naive reference on a
// fuzzed geometry choice and address stream. Each step takes three bytes:
// op selects a repeat of the previous block (op%4 == 0) or the block
// number in the next two bytes; the probe uses those bytes swapped.
func FuzzCacheDifferential(f *testing.F) {
	f.Add(uint8(0), []byte{1, 0, 0, 1, 0, 8, 1, 0, 16, 0, 0, 0, 1, 0, 0})
	f.Add(uint8(5), []byte{1, 0, 0, 0, 0, 0, 3, 1, 2, 3, 2, 1, 7, 9, 9})
	f.Add(uint8(2), []byte{2, 0, 4, 6, 4, 0, 0, 0, 0, 9, 255, 255})
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		g := differentialGeoms[int(sel)%len(differentialGeoms)]
		c := newCache(g)
		ref := newNaiveCache(g)
		var prev uint64
		for i := 0; i+3 <= len(data); i += 3 {
			op, hi, lo := data[i], data[i+1], data[i+2]
			addr := (uint64(hi)<<8|uint64(lo))*g.LineBytes + uint64(op)%g.LineBytes
			if op%4 == 0 {
				addr = prev ^ uint64(op)%g.LineBytes
			}
			prev = addr
			p := (uint64(lo)<<8 | uint64(hi)) * g.LineBytes
			if msg := stepCache(c, ref, addr, p); msg != "" {
				t.Fatalf("geom %+v step %d: %s", g, i/3, msg)
			}
		}
	})
}

func refProbe(c *naiveCache, addr uint64) bool {
	block := addr >> c.lineBits
	set := c.sets[block&c.setMask]
	tag := block >> naivePopcount(c.setMask)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// TestTLBDifferential drives the O(1) TLB and the naive scan with
// identical randomized page streams across the entry counts the host
// configs use (64-entry L1 TLBs up to the 1.5k-entry Xeon STLB).
func TestTLBDifferential(t *testing.T) {
	for _, entries := range []int{1, 2, 64, 128, 1536} {
		for _, pages := range []uint64{4, uint64(entries), uint64(3 * entries)} {
			tl := newTLB(entries)
			ref := newNaiveTLB(entries)
			rng := rand.New(rand.NewSource(int64(entries)*31 + int64(pages)))
			var prev uint64
			for i := 0; i < 40000; i++ {
				page := (rng.Uint64() % pages) << 12
				if rng.Intn(4) == 0 {
					page = prev // repeat the previous page
				}
				prev = page
				tl.evictedOK = false
				gotHit := tl.access(page)
				wantHit, wantEv, wantEvOK := ref.access(page)
				if gotHit != wantHit || tl.evictedOK != wantEvOK ||
					(wantEvOK && tl.evictedPage != wantEv) {
					t.Fatalf("entries=%d pages=%d step %d page %#x: got (hit=%v ev=%#x,%v) want (hit=%v ev=%#x,%v)",
						entries, pages, i, page, gotHit, tl.evictedPage, tl.evictedOK,
						wantHit, wantEv, wantEvOK)
				}
			}
			if tl.MissRate() <= 0 || tl.MissRate() > 1 {
				t.Fatalf("entries=%d: miss rate %v out of range", entries, tl.MissRate())
			}
		}
	}
}

// TestPageOfMemoization checks the memoized + binary-search pageOf
// against a plain first-match scan over the insertion-ordered regions,
// including THP split text and out-of-region fallback addresses.
func TestPageOfMemoization(t *testing.T) {
	cfg := testConfig()
	cfg.HugePages = PagesTHP
	cfg.THPCoverage = 0.6
	m := NewMachine(cfg)
	m.MapText(0x40_0000, 0x40_0000+64<<20)
	m.MapData(0x7f00_0000_0000, 0x7f00_0000_0000+32<<20)
	m.MapData(0x7fff_ff00_0000-(1<<20), 0x7fff_ff00_0000+(1<<12))

	scan := func(addr uint64) uint64 {
		for _, r := range m.regions {
			if addr >= r.base && addr < r.end {
				return addr &^ (r.pageBytes - 1)
			}
		}
		return addr &^ (m.cfg.PageBytes - 1)
	}

	rng := rand.New(rand.NewSource(99))
	spans := [][2]uint64{
		{0x40_0000, 0x40_0000 + 64<<20},
		{0x7f00_0000_0000, 0x7f00_0000_0000 + 32<<20},
		{0x7fff_ff00_0000 - (1 << 20), 0x7fff_ff00_0000 + (1 << 12)},
		{0, 1 << 30}, // mostly unmapped
	}
	for i := 0; i < 200000; i++ {
		s := spans[rng.Intn(len(spans))]
		addr := s[0] + rng.Uint64()%(s[1]-s[0])
		if got, want := m.pageOf(addr), scan(addr); got != want {
			t.Fatalf("pageOf(%#x) = %#x, want %#x", addr, got, want)
		}
	}
}
