package mem

import (
	"fmt"

	"gem5prof/internal/sim"
)

// MultiHierarchy is a memory system for an n-core guest: private split L1s
// per core over a shared bus, a unified L2, and DRAM.
type MultiHierarchy struct {
	L1I []*Cache
	L1D []*Cache
	// ITB/DTB are per-core guest TLBs (nil entries when disabled).
	ITB []*TLB
	DTB []*TLB
	// Dir is the MESI directory between the L1Ds and the L2; nil unless
	// HierarchyConfig.Directory was set with more than one core.
	Dir  *Directory
	L2   *Cache
	Bus  *Bus
	DRAM *DRAM
}

// IPort returns the port the core's instruction fetches should use.
func (h *MultiHierarchy) IPort(i int) Port {
	if h.ITB != nil && h.ITB[i] != nil {
		return h.ITB[i]
	}
	return h.L1I[i]
}

// DPort returns the port the core's data accesses should use.
func (h *MultiHierarchy) DPort(i int) Port {
	if h.DTB != nil && h.DTB[i] != nil {
		return h.DTB[i]
	}
	return h.L1D[i]
}

// NewMultiHierarchy builds the n-core memory system in sys. The cache names
// in cfg are suffixed with the core index.
func NewMultiHierarchy(sys *sim.System, cfg HierarchyConfig, n int) *MultiHierarchy {
	if n <= 0 {
		panic("mem: hierarchy needs at least one core")
	}
	h := &MultiHierarchy{}
	h.DRAM = NewDRAM(sys, cfg.DRAM)
	h.Bus = NewBus(sys, cfg.Bus, h.DRAM)
	h.L2 = NewCache(sys, cfg.L2, h.Bus)
	if cfg.Directory && n > 1 {
		h.Dir = NewDirectory(sys, cfg.Dir, h.L2, n)
	}
	for i := 0; i < n; i++ {
		l1i := cfg.L1I
		l1i.Name = fmt.Sprintf("%s%d", cfg.L1I.Name, i)
		l1d := cfg.L1D
		l1d.Name = fmt.Sprintf("%s%d", cfg.L1D.Name, i)
		// Instruction caches bypass the directory: KISA code is read-only.
		h.L1I = append(h.L1I, NewCache(sys, l1i, h.L2))
		if h.Dir != nil {
			h.L1D = append(h.L1D, NewCache(sys, l1d, h.Dir.Port(i)))
			h.Dir.Attach(i, h.L1D[i])
		} else {
			h.L1D = append(h.L1D, NewCache(sys, l1d, h.L2))
		}
		if cfg.GuestTLBs {
			itb := cfg.ITB
			itb.Name = fmt.Sprintf("%s%d", cfg.ITB.Name, i)
			dtb := cfg.DTB
			dtb.Name = fmt.Sprintf("%s%d", cfg.DTB.Name, i)
			h.ITB = append(h.ITB, NewTLB(sys, itb, h.L1I[i]))
			h.DTB = append(h.DTB, NewTLB(sys, dtb, h.L1D[i]))
		} else {
			h.ITB = append(h.ITB, nil)
			h.DTB = append(h.DTB, nil)
		}
	}
	return h
}
