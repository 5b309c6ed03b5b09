// Package uarch models the host machine the simulator runs on: VIPT L1
// caches, a cache hierarchy with LLC occupancy tracking, multi-level TLBs
// with configurable page sizes, a branch predictor with a BTB, the decoded
// uop cache (DSB) versus legacy decoder (MITE) front end, and Top-Down
// cycle accounting in the style of VTune's microarchitecture analysis.
//
// The structures are simulated exactly (tags, LRU, history); cycles are
// composed from their outcomes with a calibrated analytical model (see
// DESIGN.md), which is what lets every figure of the paper be regenerated
// in simulation.
package uarch

import "math/bits"

// CacheGeom is the geometry of one cache level.
type CacheGeom struct {
	SizeBytes uint64
	Ways      int
	LineBytes uint64
}

// Sets returns the set count.
func (g CacheGeom) Sets() uint64 {
	return g.SizeBytes / (uint64(g.Ways) * g.LineBytes)
}

// cache is a set-associative LRU cache over 64-bit host addresses. Its
// state is two parallel set-major arrays indexed [set*ways+way]: tags
// holds tag+1 (0 marks an empty way, so a fresh make is an empty cache and
// construction touches no pages) and lru holds each way's last-use stamp
// (0 while empty). A hit compares only the set's tags, which for 8 ways
// fill one host cache line; the LRU stamps are scanned for a victim only
// on a miss. The set/tag shifts are computed once at construction instead
// of popcounting the mask on every lookup.
type cache struct {
	geom     CacheGeom
	tags     []uint64 // sets × ways, set-major: tag+1, 0 = empty
	lru      []uint64 // sets × ways, set-major: last-use stamp, 0 = empty
	setMask  uint64
	setBits  uint
	lineBits uint
	ways     uint64
	seq      uint64

	// mru is the index (into tags and lru) of the way the previous access
	// hit or filled, and mruBlock its block address; mruBlock starts at a
	// value no block can take (lineBits >= 1). Ways change only in access,
	// so a repeat of the previous block is a hit on that way: refreshing
	// its LRU stamp is exactly what the set scan would do.
	mru      uint64
	mruBlock uint64

	Accesses uint64
	Misses   uint64
	resident uint64 // valid line count for occupancy

	// evictedTag/evictedOK record the most recent eviction of a valid
	// line; written only on the (already expensive) eviction path, read
	// by the differential tests.
	evictedTag uint64
	evictedOK  bool
}

func newCache(g CacheGeom) *cache {
	if err := g.validate(); err != nil {
		panic("uarch: cache " + err.Error())
	}
	sets := g.Sets()
	n := sets * uint64(g.Ways)
	return &cache{
		geom:     g,
		setMask:  sets - 1,
		setBits:  uint(bits.OnesCount64(sets - 1)),
		lineBits: uint(bits.TrailingZeros64(g.LineBytes)),
		ways:     uint64(g.Ways),
		tags:     make([]uint64, n),
		lru:      make([]uint64, n),
		mruBlock: ^uint64(0),
	}
}

// access looks up addr, filling on miss. Returns true on hit.
func (c *cache) access(addr uint64) bool {
	c.Accesses++
	block := addr >> c.lineBits
	c.seq++
	if block == c.mruBlock {
		c.lru[c.mru] = c.seq
		return true
	}
	base := (block & c.setMask) * c.ways
	tags := c.tags[base : base+c.ways]
	want := block>>c.setBits + 1
	for i, t := range tags {
		if t == want {
			w := base + uint64(i)
			c.lru[w] = c.seq
			c.mru, c.mruBlock = w, block
			return true
		}
	}
	c.Misses++
	// Victim: the last way with the smallest stamp. Empty ways are the
	// only ones stamped 0 and filled ways carry distinct stamps, so this
	// is the last empty way if there is one, otherwise the exact LRU way.
	lru := c.lru[base : base+c.ways]
	v := 0
	for i := 1; i < len(lru); i++ {
		if lru[i] <= lru[v] {
			v = i
		}
	}
	if tags[v] == 0 {
		c.resident++
	} else {
		c.evictedTag, c.evictedOK = tags[v]-1, true
	}
	tags[v] = want
	lru[v] = c.seq
	c.mru, c.mruBlock = base+uint64(v), block
	return false
}

// probe reports whether addr is resident without updating state.
func (c *cache) probe(addr uint64) bool {
	block := addr >> c.lineBits
	base := (block & c.setMask) * c.ways
	want := block>>c.setBits + 1
	for _, t := range c.tags[base : base+c.ways] {
		if t == want {
			return true
		}
	}
	return false
}

// OccupancyBytes returns resident lines times the line size.
func (c *cache) OccupancyBytes() uint64 { return c.resident * c.geom.LineBytes }

// MissRate returns misses/accesses.
func (c *cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// gshare is a tournament direction predictor (per-PC bimodal + global
// history gshare + a choice table) with a BTB for indirect targets, loosely
// modeling the Xeon's and M1's front-end predictors.
type gshare struct {
	bimodal []uint8 // 2-bit counters indexed by PC
	global  []uint8 // 2-bit counters indexed by PC^history
	choice  []uint8 // 2-bit: >=2 means trust global
	mask    uint64
	history uint64

	btb []struct {
		tag, target uint64
		valid       bool
	}
	btbMask uint64

	Lookups        uint64
	Mispredicts    uint64
	IndirectClears uint64 // BAClears: unknown indirect targets
}

func newGshare(tableEntries, btbEntries int) *gshare {
	if tableEntries&(tableEntries-1) != 0 || btbEntries&(btbEntries-1) != 0 {
		panic("uarch: predictor sizes must be powers of two")
	}
	g := &gshare{
		bimodal: make([]uint8, tableEntries),
		global:  make([]uint8, tableEntries),
		choice:  make([]uint8, tableEntries),
		mask:    uint64(tableEntries - 1),
	}
	for i := range g.bimodal {
		g.bimodal[i] = 2 // weakly taken
		g.global[i] = 2
		g.choice[i] = 1 // prefer bimodal until global proves itself
	}
	g.btb = make([]struct {
		tag, target uint64
		valid       bool
	}, btbEntries)
	g.btbMask = uint64(btbEntries - 1)
	return g
}

// conditional predicts and trains one conditional branch; returns true when
// the prediction was correct.
func (g *gshare) conditional(pc uint64, taken bool) bool {
	g.Lookups++
	bi := (pc >> 1) & g.mask
	gi := (pc>>1 ^ g.history) & g.mask
	bPred := g.bimodal[bi] >= 2
	gPred := g.global[gi] >= 2
	pred := bPred
	if g.choice[bi] >= 2 {
		pred = gPred
	}
	// Train the choice table toward whichever component was right.
	if gPred == taken && bPred != taken && g.choice[bi] < 3 {
		g.choice[bi]++
	} else if bPred == taken && gPred != taken && g.choice[bi] > 0 {
		g.choice[bi]--
	}
	train := func(t []uint8, i uint64) {
		if taken {
			if t[i] < 3 {
				t[i]++
			}
		} else if t[i] > 0 {
			t[i]--
		}
	}
	train(g.bimodal, bi)
	train(g.global, gi)
	g.history = g.history<<1 | b2u64(taken)
	correct := pred == taken
	if !correct {
		g.Mispredicts++
	}
	return correct
}

// indirect predicts and trains one indirect branch; returns true when the
// BTB had the right target.
func (g *gshare) indirect(pc, target uint64) bool {
	g.Lookups++
	idx := (pc >> 1) & g.btbMask
	e := &g.btb[idx]
	hit := e.valid && e.tag == pc && e.target == target
	if !hit {
		g.IndirectClears++
		g.Mispredicts++
	}
	e.tag = pc
	e.target = target
	e.valid = true
	return hit
}

// MispredictRate returns mispredicts/lookups.
func (g *gshare) MispredictRate() float64 {
	if g.Lookups == 0 {
		return 0
	}
	return float64(g.Mispredicts) / float64(g.Lookups)
}

func b2u64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
