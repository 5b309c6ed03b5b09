// Package platform instantiates the host machines of the paper: the three
// evaluation platforms of Table II (Intel_Xeon, M1_Pro, M1_Ultra), the
// FireSim Rocket host of Table I with the cache geometries swept in
// Fig. 14, and the co-running/SMT contention model behind Fig. 1.
package platform

import (
	"fmt"

	"gem5prof/internal/uarch"
)

// Physical-core topology from Table II, used by the co-run scenarios.
const (
	XeonPhysicalCores   = 20
	XeonHardwareThreads = 40
	M1ProPerfCores      = 4
	M1UltraPerfCores    = 16
)

// IntelXeon returns the Dell Precision 7920's Xeon Gold 6242R (Cascade
// Lake) model: 3.1 GHz, 4KB pages, 64B lines, 32KB/8w L1s, a decoded-uop
// cache, and a large shared LLC (modeled as 32MB/16w; the real part's
// 35.75MB/11w is not a power-of-two set count).
func IntelXeon() uarch.Config {
	return uarch.Config{
		Name:          "Intel_Xeon",
		FreqGHz:       3.1,
		PageBytes:     4096,
		HugePageBytes: 2 << 20,
		THPCoverage:   0.45, // iodlr remaps only the hotter part of .text

		L1I: uarch.CacheGeom{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L1D: uarch.CacheGeom{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L2:  uarch.CacheGeom{SizeBytes: 1 << 20, Ways: 16, LineBytes: 64},
		LLC: uarch.CacheGeom{SizeBytes: 32 << 20, Ways: 16, LineBytes: 64},

		L2Cycles:            14,
		LLCCycles:           44,
		DRAMNanos:           96,
		PeakDRAMBytesPerSec: 141e9,

		ITLBEntries: 128,
		DTLBEntries: 64,
		STLBEntries: 1536,
		STLBCycles:  9,
		WalkCycles:  45,

		IssueWidth:  4,
		DecodeWidth: 2.8, // effective MITE throughput on cold x86 code
		DSBUops:     1536,
		DSBWidth:    6,

		BPTableEntries:   16384,
		BTBEntries:       4096,
		MispredictCycles: 17,
		ResteerCycles:    9,
		BAClearCycles:    10,

		MLPOverlap: 0.70,
	}
}

// m1Common fills the fields shared by both Apple platforms (Firestorm
// performance cores: 16KB pages, 128B lines, 192KB/128KB L1s, 8-wide fixed
// length decode, no uop cache).
func m1Common(name string) uarch.Config {
	return uarch.Config{
		Name:          name,
		FreqGHz:       3.2,
		PageBytes:     16 << 10,
		HugePageBytes: 32 << 20, // 16KB-granule "huge" mappings

		L1I: uarch.CacheGeom{SizeBytes: 192 << 10, Ways: 12, LineBytes: 128},
		L1D: uarch.CacheGeom{SizeBytes: 128 << 10, Ways: 8, LineBytes: 128},

		L2Cycles:  18,
		LLCCycles: 50,
		DRAMNanos: 97,

		ITLBEntries: 192,
		DTLBEntries: 160,
		STLBEntries: 3072,
		STLBCycles:  7,
		WalkCycles:  30, // 16KB pages: shallower walks

		IssueWidth:  8,
		DecodeWidth: 8, // fixed-length AArch64 decode matches issue width
		DSBUops:     0, // no uop cache on Firestorm
		DSBWidth:    0,

		BPTableEntries:   65536,
		BTBEntries:       16384,
		MispredictCycles: 14,
		ResteerCycles:    8,
		BAClearCycles:    8,

		MLPOverlap: 0.78,
	}
}

// M1Pro returns the MacBook Pro (M1) model of Table II: 12MB P-cluster L2
// and an 8MB system-level cache.
func M1Pro() uarch.Config {
	c := m1Common("M1_Pro")
	c.L2 = uarch.CacheGeom{SizeBytes: 12 << 20, Ways: 12, LineBytes: 128}
	c.LLC = uarch.CacheGeom{SizeBytes: 8 << 20, Ways: 16, LineBytes: 128}
	c.PeakDRAMBytesPerSec = 68e9
	return c
}

// M1Ultra returns the Mac Studio (M1 Ultra) model of Table II: 48MB of
// cluster L2 and a 96MB system-level cache.
func M1Ultra() uarch.Config {
	c := m1Common("M1_Ultra")
	c.L2 = uarch.CacheGeom{SizeBytes: 48 << 20, Ways: 12, LineBytes: 128}
	c.LLC = uarch.CacheGeom{SizeBytes: 96 << 20, Ways: 12, LineBytes: 128}
	c.PeakDRAMBytesPerSec = 819.2e9
	return c
}

// FireSimRocket returns the FireSim host of Table I with explicit L1/L2
// geometry, the knob swept in Fig. 14: 4 GHz, 8-wide, TournamentBP with a
// 4096-entry BTB, 4KB pages, 64B lines, DDR3-1600.
func FireSimRocket(l1iKB, l1iWays, l1dKB, l1dWays, l2KB, l2Ways int) uarch.Config {
	return uarch.Config{
		Name:          fmt.Sprintf("FireSim(%dKB/%d:%dKB/%d:%dKB/%d)", l1iKB, l1iWays, l1dKB, l1dWays, l2KB, l2Ways),
		FreqGHz:       4.0,
		PageBytes:     4096,
		HugePageBytes: 2 << 20,

		L1I: uarch.CacheGeom{SizeBytes: uint64(l1iKB) << 10, Ways: l1iWays, LineBytes: 64},
		L1D: uarch.CacheGeom{SizeBytes: uint64(l1dKB) << 10, Ways: l1dWays, LineBytes: 64},
		L2:  uarch.CacheGeom{SizeBytes: uint64(l2KB) << 10, Ways: l2Ways, LineBytes: 64},
		// Two-level hierarchy: no LLC.

		L2Cycles:            20,
		DRAMNanos:           70, // DDR3-1600 on the simulated host
		PeakDRAMBytesPerSec: 12.8e9,

		ITLBEntries: 32,
		DTLBEntries: 32,
		STLBEntries: 512,
		STLBCycles:  8,
		WalkCycles:  60,

		IssueWidth:  8,
		DecodeWidth: 8,
		DSBUops:     0,

		BPTableEntries:   8192,
		BTBEntries:       4096,
		MispredictCycles: 12,
		ResteerCycles:    7,
		BAClearCycles:    7,

		MLPOverlap: 0.65,
	}
}

// FireSimBase returns Table I's base configuration (48KB L1I, 32KB L1D).
func FireSimBase() uarch.Config {
	return FireSimRocket(48, 12, 32, 8, 512, 8)
}

// ByName resolves the three Table II platforms.
func ByName(name string) (uarch.Config, error) {
	switch name {
	case "Intel_Xeon", "xeon":
		return IntelXeon(), nil
	case "M1_Pro", "m1pro":
		return M1Pro(), nil
	case "M1_Ultra", "m1ultra":
		return M1Ultra(), nil
	}
	return uarch.Config{}, fmt.Errorf("platform: unknown platform %q", name)
}

// TableIIPlatforms returns the paper's three evaluation platforms in order.
func TableIIPlatforms() []uarch.Config {
	return []uarch.Config{IntelXeon(), M1Pro(), M1Ultra()}
}

// Scenario describes how many gem5 processes co-run on a platform (Fig. 1).
type Scenario struct {
	// Procs is the number of simultaneously running gem5 processes
	// sharing the LLC.
	Procs int
	// SMT marks two processes per physical core (Intel only): the L1s,
	// TLBs, decoder, and uop cache are competitively shared.
	SMT bool
}

// Contend derives the per-process effective machine under a co-run
// scenario: the shared LLC is partitioned across processes, and SMT halves
// the per-thread front-end and L1/TLB resources.
func Contend(cfg uarch.Config, sc Scenario) uarch.Config {
	out := cfg
	if sc.Procs > 1 {
		out.Name = fmt.Sprintf("%s x%d", cfg.Name, sc.Procs)
		out.LLC = shrinkWays(cfg.LLC, sc.Procs)
		// The shared L2 clusters on M1 are also partitioned; Intel's L2 is
		// private per core and untouched.
		if cfg.DSBUops == 0 { // M1-style shared cluster L2
			out.L2 = shrinkWays(cfg.L2, sc.Procs)
		}
	}
	if sc.SMT {
		out.Name += " SMT"
		out.L1I = shrinkWays(cfg.L1I, 2)
		out.L1D = shrinkWays(cfg.L1D, 2)
		out.ITLBEntries = max(1, cfg.ITLBEntries/2)
		out.DTLBEntries = max(1, cfg.DTLBEntries/2)
		out.STLBEntries = max(1, cfg.STLBEntries/2)
		out.DSBUops = cfg.DSBUops / 2
		out.DecodeWidth = cfg.DecodeWidth * 0.72 // decode slots alternate
		out.IssueWidth = cfg.IssueWidth * 0.92   // shared retire bandwidth
	}
	return out
}

// shrinkWays partitions a cache by dividing associativity, keeping the set
// count (and therefore power-of-two indexing) intact. An absent level (the
// FireSim Rocket's LLC) stays absent.
func shrinkWays(g uarch.CacheGeom, factor int) uarch.CacheGeom {
	if g.SizeBytes == 0 {
		return g
	}
	ways := g.Ways / factor
	if ways < 1 {
		ways = 1
	}
	out := g
	out.Ways = ways
	out.SizeBytes = uint64(ways) * g.Sets() * g.LineBytes
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
