package uarch

import "fmt"

// HugePageMode selects how the host backs the simulator's code segment,
// reproducing the paper's Sec. V-A system tuning.
type HugePageMode int

// Huge-page modes for the text segment.
const (
	// PagesBase backs code with the platform's base page size.
	PagesBase HugePageMode = iota
	// PagesTHP backs the hottest part of the code with transparent 2MB
	// pages (Intel iodlr-style remapping of a subset of the text).
	PagesTHP
	// PagesEHP backs the whole binary with explicit huge pages
	// (libhugetlbfs-style, with a sub-optimal layout).
	PagesEHP
)

func (m HugePageMode) String() string {
	switch m {
	case PagesBase:
		return "base"
	case PagesTHP:
		return "thp"
	case PagesEHP:
		return "ehp"
	}
	return fmt.Sprintf("HugePageMode(%d)", int(m))
}

// Config describes one host machine (one column of the paper's Table II, or
// one FireSim configuration from Table I / Fig. 14).
type Config struct {
	Name string
	// FreqGHz is the core clock. Time = cycles / (FreqGHz * 1e9).
	FreqGHz float64
	// PageBytes is the base virtual-memory page size (4KB Xeon, 16KB M1).
	PageBytes uint64
	// HugePages selects text-segment backing; HugePageBytes is the huge
	// page size (2MB); THPCoverage is the fraction of text remapped by THP.
	HugePages     HugePageMode
	HugePageBytes uint64
	THPCoverage   float64

	// Cache hierarchy. L1 caches are VIPT-constrained (validated).
	L1I, L1D CacheGeom
	L2, LLC  CacheGeom
	// Latencies in cycles (L2/LLC) and nanoseconds (DRAM).
	L2Cycles  float64
	LLCCycles float64
	DRAMNanos float64
	// PeakDRAMBytesPerSec for bandwidth-utilization reporting.
	PeakDRAMBytesPerSec float64

	// TLBs.
	ITLBEntries, DTLBEntries, STLBEntries int
	STLBCycles                            float64
	WalkCycles                            float64

	// Front end.
	IssueWidth  float64 // rename/retire slots per cycle
	DecodeWidth float64 // legacy decoder (MITE) uops per cycle
	DSBUops     int     // uop cache capacity (0 = none, e.g. M1)
	DSBWidth    float64 // uop-cache delivery rate
	// Branch handling.
	BPTableEntries, BTBEntries int
	MispredictCycles           float64 // total flush cost
	ResteerCycles              float64 // front-end refill share of a flush
	BAClearCycles              float64 // unknown-target (indirect) resteer

	// Back end.
	MLPOverlap    float64 // fraction of data-miss latency hidden by MLP/OoO
	SkipVIPTCheck bool    // ablation A2: allow non-VIPT L1 geometries
}

// Validate checks internal consistency, including the VIPT constraint the
// paper leans on: one L1 way must not exceed the page size. A config it
// accepts builds with NewMachine.
func (c *Config) Validate() error {
	if c.FreqGHz <= 0 || c.PageBytes == 0 {
		return fmt.Errorf("uarch: %s: frequency and page size required", c.Name)
	}
	type level struct {
		name string
		g    CacheGeom
	}
	caches := []level{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}}
	if c.LLC.SizeBytes > 0 { // two-level hosts have no LLC
		caches = append(caches, level{"LLC", c.LLC})
	}
	for _, l := range caches {
		if err := l.g.validate(); err != nil {
			return fmt.Errorf("uarch: %s: %s %v", c.Name, l.name, err)
		}
	}
	type table struct {
		name    string
		entries int
	}
	for _, t := range []table{{"ITLB", c.ITLBEntries}, {"DTLB", c.DTLBEntries}, {"STLB", c.STLBEntries}} {
		if t.entries <= 0 {
			return fmt.Errorf("uarch: %s: %s needs entries, got %d", c.Name, t.name, t.entries)
		}
	}
	for _, t := range []table{{"branch predictor table", c.BPTableEntries}, {"BTB", c.BTBEntries}} {
		if t.entries <= 0 || !isPow2(uint64(t.entries)) {
			return fmt.Errorf("uarch: %s: %s size %d is not a nonzero power of two", c.Name, t.name, t.entries)
		}
	}
	if !c.SkipVIPTCheck {
		for _, l1 := range caches[:2] {
			wayBytes := l1.g.SizeBytes / uint64(l1.g.Ways)
			if wayBytes > c.PageBytes {
				return fmt.Errorf("uarch: %s: %s way (%d B) exceeds page size (%d B): VIPT constraint violated",
					c.Name, l1.name, wayBytes, c.PageBytes)
			}
		}
	}
	if c.IssueWidth <= 0 || c.DecodeWidth <= 0 {
		return fmt.Errorf("uarch: %s: widths required", c.Name)
	}
	if c.MLPOverlap < 0 || c.MLPOverlap >= 1 {
		return fmt.Errorf("uarch: %s: MLPOverlap must be in [0,1)", c.Name)
	}
	return nil
}

// validate checks the geometry newCache relies on: at least one way, a
// power-of-two line of at least 2 bytes (so a stored tag+1 cannot wrap),
// and a nonzero power-of-two set count.
func (g CacheGeom) validate() error {
	if g.Ways <= 0 {
		return fmt.Errorf("needs at least one way, got %d", g.Ways)
	}
	if g.LineBytes < 2 || !isPow2(g.LineBytes) {
		return fmt.Errorf("line size %d B is not a power of two of at least 2", g.LineBytes)
	}
	if s := g.Sets(); !isPow2(s) {
		return fmt.Errorf("set count %d is not a nonzero power of two", s)
	}
	return nil
}

func isPow2(n uint64) bool { return n != 0 && n&(n-1) == 0 }
