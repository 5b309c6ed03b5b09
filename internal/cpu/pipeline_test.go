package cpu

import (
	"testing"

	"gem5prof/internal/guest"
	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// Structural tests for the detailed pipeline models: resource limits must
// actually bound the machine, squashes must be counted, and the stat
// registry must expose it all.

// longDepChain is a program whose every instruction depends on the previous
// one: no ILP at all.
const longDepChain = `
_start:
	li   t0, 1
	li   t1, 2000
chain:
	mul  t0, t0, t0
	addi t0, t0, 3
	mul  t0, t0, t0
	addi t0, t0, 7
	addi t1, t1, -1
	bne  t1, x0, chain
	mv   a0, t0
	ecall
`

// wideILP has eight independent accumulator streams (x18..x25) and a
// dedicated counter (x31) — no ABI-alias overlap.
const wideILP = `
_start:
	li   x31, 2000
wloop:
	addi x18, x18, 1
	addi x19, x19, 2
	addi x20, x20, 3
	addi x21, x21, 4
	addi x22, x22, 5
	addi x23, x23, 6
	addi x24, x24, 7
	addi x25, x25, 8
	addi x31, x31, -1
	bne  x31, x0, wloop
	add  a0, x18, x25
	ecall
`

func TestO3ExploitsILP(t *testing.T) {
	dep := buildRig(t, "o3", longDepChain, false)
	runRig(t, dep)
	depIPC := dep.cpu.IPC()
	ilp := buildRig(t, "o3", wideILP, false)
	runRig(t, ilp)
	ilpIPC := ilp.cpu.IPC()
	if ilpIPC < depIPC*1.5 {
		t.Fatalf("O3 should exploit ILP: dep chain IPC %.2f vs wide %.2f", depIPC, ilpIPC)
	}
	if ilpIPC < 2 {
		t.Fatalf("8-wide O3 on pure ILP should exceed IPC 2, got %.2f", ilpIPC)
	}
}

func TestMinorBoundedByWidth(t *testing.T) {
	ilp := buildRig(t, "minor", wideILP, false)
	runRig(t, ilp)
	if ipc := ilp.cpu.IPC(); ipc > 2.05 {
		t.Fatalf("2-wide Minor cannot exceed IPC 2, got %.2f", ipc)
	}
}

func TestO3SquashCounting(t *testing.T) {
	// Data-dependent branches mispredict; squashes must be recorded.
	r := buildRig(t, "o3", `
_start:
	li   t0, 99991
	li   t1, 3000
sloop:
	li   t4, 1103515245
	mul  t0, t0, t4
	addi t0, t0, 12345
	andi t2, t0, 1
	beq  t2, x0, even
	addi a0, a0, 1
even:
	addi t1, t1, -1
	bne  t1, x0, sloop
	ecall
`, false)
	runRig(t, r)
	o3 := r.cpu.(*O3CPU)
	if o3.squashes.Count() == 0 {
		t.Fatal("no squashes recorded for mispredicting branches")
	}
	if o3.bp.Mispredicts() == 0 {
		t.Fatal("no mispredicts recorded")
	}
	// A sanity bound: can't mispredict more often than branches resolve.
	if o3.bp.Mispredicts() > o3.bp.Lookups() {
		t.Fatal("mispredicts exceed lookups")
	}
}

func TestO3LSQBoundsOutstandingLoads(t *testing.T) {
	// A burst of independent loads: the LQ (32 entries) plus dispatch
	// stalls must bound what is in flight; lsqFullStalls should trigger
	// with a tiny LQ.
	src := `
_start:
	la   t0, arr
	li   t1, 512
lloop:
	lw   t2, 0(t0)
	lw   t3, 4(t0)
	lw   t4, 8(t0)
	lw   t5, 12(t0)
	addi t0, t0, 16
	addi t1, t1, -1
	bne  t1, x0, lloop
	ecall
arr:
	.space 8192
`
	rig := buildRig(t, "o3", src, true)
	runRig(t, rig)

	// Rebuild with a 2-entry LQ and verify the stall counter fires.
	tiny := DefaultO3Config()
	tiny.LQEntries = 2
	tiny.SQEntries = 2
	r2 := buildRigO3(t, src, tiny)
	runRig(t, r2)
	o3 := r2.cpu.(*O3CPU)
	if o3.lsqFullStall.Count() == 0 {
		t.Fatal("tiny LQ never caused a dispatch stall")
	}
}

// buildRigO3 mirrors buildRig for the O3 model with a custom geometry.
func buildRigO3(t *testing.T, src string, ocfg O3Config) *rig {
	t.Helper()
	sys := sim.NewSystem(7)
	gm := guest.NewMemory(16 * 1024 * 1024)
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := gm.Load(prog); err != nil {
		t.Fatalf("load: %v", err)
	}
	hier := mem.NewMultiHierarchy(sys, mem.DefaultHierarchyConfig("sys"), 1)
	cfg := Config{
		Name: "cpu0", Mem: memAdapter{gm}, Env: &haltEnv{sys},
		IPort: hier.L1I[0], DPort: hier.L1D[0],
	}
	r := &rig{sys: sys, mem: gm, hier: hier}
	c := NewO3CPU(sys, cfg, ocfg)
	r.cpu = c
	c.Start(prog.Entry)
	return r
}

func TestO3TinyROBStalls(t *testing.T) {
	tiny := DefaultO3Config()
	tiny.ROBEntries = 4
	tiny.IQEntries = 2
	r := buildRigO3(t, wideILP, tiny)
	runRig(t, r)
	o3 := r.cpu.(*O3CPU)
	if o3.robFullStall.Count() == 0 && o3.iqFullStall.Count() == 0 {
		t.Fatal("tiny ROB/IQ never stalled dispatch")
	}
	// And the machine still computes the right answer: x18=2000, x25=16000.
	if got := r.cpu.Core().ReadReg(10); got != 2000+16000 {
		t.Fatalf("a0 = %d", got)
	}
}

func TestStatsRegistryExposesPipelineCounters(t *testing.T) {
	r := buildRig(t, "o3", wideILP, true)
	runRig(t, r)
	for _, name := range []string{
		"cpu0.committedInsts", "cpu0.numCycles", "cpu0.squashes",
		"cpu0.robFullStalls", "cpu0.bpLookups", "cpu0.bpMispredicts",
		"sys.l1i0.hits", "sys.l2.misses", "sys.dram.reads",
	} {
		if r.sys.Stats().Lookup(name) == nil {
			t.Errorf("stat %q missing", name)
		}
	}
}
