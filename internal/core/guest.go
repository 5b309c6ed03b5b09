// Package core is the paper's methodology as a library: it builds complete
// guest simulations (the g5 simulator) and co-simulates their execution on
// modeled host platforms, producing the profiling reports every experiment
// in the paper is derived from.
package core

import (
	"fmt"
	"io"

	"gem5prof/internal/cpu"
	"gem5prof/internal/guest"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
	"gem5prof/internal/sysemu"
	"gem5prof/internal/workloads"
)

// CPUModel selects the guest CPU model, mirroring the paper's four types.
type CPUModel string

// Guest CPU models.
const (
	Atomic CPUModel = "atomic"
	Timing CPUModel = "timing"
	Minor  CPUModel = "minor"
	O3     CPUModel = "o3"
)

// AllCPUModels lists the models in the paper's order of increasing detail.
var AllCPUModels = []CPUModel{Atomic, Timing, Minor, O3}

// Mode selects the simulation mode.
type Mode string

// Simulation modes.
const (
	SE Mode = "se" // system-call emulation
	FS Mode = "fs" // full system with the mini-kernel
)

// GuestConfig describes one g5 simulation.
type GuestConfig struct {
	CPU      CPUModel
	Mode     Mode
	Workload string // workload name; ignored for boot-exit
	// Scale overrides the workload's default problem size when nonzero.
	Scale int
	// BootExit runs FS boot with no init app (paper's Boot-Exit workload).
	BootExit bool
	// BootKBs overrides how much memory the FS kernel initializes at boot
	// (scales boot length); 0 uses the kernel default.
	BootKBs int
	// Cores is the simulated core count, 1 to MaxCores; 0 means 1. In SE
	// mode core 0 enters the workload at its entry point; cores
	// 1..Cores-1 start parked and are dispatched by the SysSpawn threading
	// syscall (internal/sysemu). More than one SE core puts a MESI
	// directory controller between the per-core L1 data caches and the
	// shared L2 and enables the threading syscall surface. In FS mode every
	// core is a kernel hart; the secondaries park. At 1 the build is the
	// single-core machine.
	Cores int
	// MemBytes is guest DRAM size (default 16 MiB, like the paper's small
	// simulated memories relative to the host).
	MemBytes uint32
	// ClockPeriod is the guest clock (default 1 GHz).
	ClockPeriod sim.Tick
	// Hierarchy overrides the guest cache hierarchy (nil = defaults).
	Hierarchy *mem.HierarchyConfig
	// IdealMemory disables the cache model (ideal 1-cycle memory).
	IdealMemory bool
	// GuestTLBs inserts guest instruction/data TLBs in front of the L1s
	// (gem5's ARM FS configuration).
	GuestTLBs bool
	// Seed drives all deterministic randomness.
	Seed int64
	// CalendarQueue selects the alternative event-queue backend (A5).
	CalendarQueue bool
	// Deprecated: Shards is ignored. Every guest runs on one event queue.
	Shards ShardMode
	// ExecTrace, when non-nil, receives one line per committed instruction
	// on every core (gem5's --debug-flags=Exec).
	ExecTrace io.Writer
}

// Normalized returns the config with every defaultable zero field replaced
// by its default — the exact config a build would run. Cache-key derivation
// (internal/simpoint) hashes the normalized form so that a zero field and
// its explicitly spelled default produce the same key.
func (c GuestConfig) Normalized() GuestConfig { return c.withDefaults() }

func (c *GuestConfig) withDefaults() GuestConfig {
	out := *c
	if out.CPU == "" {
		out.CPU = Atomic
	}
	if out.Mode == "" {
		out.Mode = SE
	}
	if out.Cores == 0 {
		out.Cores = 1
	}
	if out.MemBytes == 0 {
		out.MemBytes = 16 * 1024 * 1024
	}
	if out.ClockPeriod == 0 {
		out.ClockPeriod = sim.Nanosecond
	}
	if out.Seed == 0 {
		out.Seed = 42
	}
	return out
}

// MaxCores is the largest guest core count: the coherence directory tracks
// sharers in a 64-bit mask.
const MaxCores = 64

// GuestResult reports one completed guest simulation.
type GuestResult struct {
	// SimTicks is the simulated guest time.
	SimTicks sim.Tick
	// Insts is the committed instruction count (all cores).
	Insts uint64
	// ExitCode is the workload's exit value (its checksum).
	ExitCode int
	// ExitReason describes how the run ended.
	ExitReason string
	// ChecksumOK reports whether ExitCode matched the workload's reference
	// model (always true for boot-exit).
	ChecksumOK bool
	// Expected is the reference checksum.
	Expected uint32
	// Stdout is SE-mode standard output or the FS UART transcript.
	Stdout string
	// Stats exposes the full guest statistics registry.
	Stats *sim.Registry
	// HostEvents is the number of simulator events serviced (the event
	// queue's workload).
	HostEvents uint64
}

// GuestSystem is a fully constructed, not-yet-run guest simulation.
type GuestSystem struct {
	Cfg    GuestConfig
	Sys    *sim.System
	Mem    *guest.Memory
	CPUs   []cpu.CPU
	Hier   *mem.MultiHierarchy // nil when IdealMemory
	SE     *sysemu.SEEnv       // SE mode only
	FS     *sysemu.Platform    // FS mode only
	expect uint32
	hasRef bool
}

// BuildGuest constructs the full guest system for cfg, mirrored onto tracer
// (use sim.NewNopTracer() for pure guest runs), with every CPU started at
// the workload entry point.
func BuildGuest(cfg GuestConfig, tracer sim.Tracer) (*GuestSystem, error) {
	g, entry, err := buildGuest(cfg, tracer)
	if err != nil {
		return nil, err
	}
	for _, c := range g.CPUs {
		c.Start(entry)
	}
	return g, nil
}

// buildGuest constructs the system without starting the CPUs, returning the
// workload entry point. RestoreGuest starts them at checkpointed PCs
// instead.
func buildGuest(cfg GuestConfig, tracer sim.Tracer) (*GuestSystem, uint32, error) {
	cfg = cfg.withDefaults()
	if cfg.Cores < 1 || cfg.Cores > MaxCores {
		return nil, 0, fmt.Errorf("core: Cores %d outside [1, %d]", cfg.Cores, MaxCores)
	}
	var queue sim.Queue = sim.NewHeapQueue()
	if cfg.CalendarQueue {
		queue = sim.NewCalendarQueue(1024, sim.Tick(cfg.ClockPeriod))
	}
	sys := sim.NewSystemWith(queue, tracer, cfg.Seed)
	ram := guest.NewMemory(cfg.MemBytes)
	ram.SetHostBase(tracer.AllocData("guest.ram", uint64(cfg.MemBytes)))

	g := &GuestSystem{Cfg: cfg, Sys: sys, Mem: ram}

	// Resolve and load the workload image(s).
	var entry uint32
	if cfg.Mode == SE {
		if cfg.BootExit {
			return nil, 0, fmt.Errorf("core: boot-exit requires FS mode")
		}
		spec, ok := workloads.ByName(cfg.Workload)
		if !ok {
			return nil, 0, fmt.Errorf("core: unknown workload %q", cfg.Workload)
		}
		scale := cfg.Scale
		if scale == 0 {
			scale = spec.DefaultScale
		}
		prog, expect, err := spec.Build(scale)
		if err != nil {
			return nil, 0, err
		}
		if err := ram.Load(prog); err != nil {
			return nil, 0, err
		}
		entry = prog.Entry
		g.expect, g.hasRef = expect, true
	} else {
		kcfg := workloads.DefaultKernelConfig()
		kcfg.Harts = cfg.Cores
		if cfg.BootKBs > 0 {
			kcfg.BootKBs = cfg.BootKBs
		}
		if !cfg.BootExit {
			spec, ok := workloads.ByName(cfg.Workload)
			if !ok {
				return nil, 0, fmt.Errorf("core: unknown workload %q", cfg.Workload)
			}
			scale := cfg.Scale
			if scale == 0 {
				scale = spec.DefaultScale
			}
			prog, expect, err := spec.Build(scale)
			if err != nil {
				return nil, 0, err
			}
			if err := ram.Load(prog); err != nil {
				return nil, 0, err
			}
			kcfg.AppEntry = prog.Entry
			g.expect, g.hasRef = expect, true
		}
		kern, err := workloads.BuildKernel(kcfg)
		if err != nil {
			return nil, 0, err
		}
		if err := ram.Load(kern); err != nil {
			return nil, 0, err
		}
		entry = kern.Entry
	}

	// Environment and functional memory.
	var env cpu.Env
	var fmem cpu.FuncMem
	var sink *sysemu.LateBindSink
	if cfg.Mode == SE {
		se := sysemu.NewSEEnv(sys, ram, workloads.HeapBase, workloads.MmapBase)
		g.SE = se
		env = se
		fmem = ram
	} else {
		sink = &sysemu.LateBindSink{}
		g.FS = sysemu.NewPlatform(sys, ram, sink)
		env = g.FS.Env
		fmem = g.FS.Mem
	}

	// Memory system.
	if !cfg.IdealMemory {
		hcfg := mem.DefaultHierarchyConfig("sys")
		if cfg.Hierarchy != nil {
			hcfg = *cfg.Hierarchy
		}
		if cfg.GuestTLBs {
			hcfg.GuestTLBs = true
		}
		if cfg.Mode == SE && cfg.Cores > 1 {
			hcfg.Directory = true
		}
		g.Hier = mem.NewMultiHierarchy(sys, hcfg, cfg.Cores)
	}

	// CPUs.
	for i := 0; i < cfg.Cores; i++ {
		ccfg := cpu.Config{
			Name:        fmt.Sprintf("cpu%d", i),
			ClockPeriod: cfg.ClockPeriod,
			Mem:         fmem,
			Env:         env,
			HartID:      uint32(i),
			ExecTrace:   cfg.ExecTrace,
		}
		if g.Hier != nil {
			ccfg.IPort = g.Hier.IPort(i)
			ccfg.DPort = g.Hier.DPort(i)
		}
		var c cpu.CPU
		switch cfg.CPU {
		case Atomic:
			c = cpu.NewAtomicCPU(sys, ccfg)
		case Timing:
			c = cpu.NewTimingCPU(sys, ccfg)
		case Minor:
			c = cpu.NewMinorCPU(sys, ccfg, cpu.DefaultMinorConfig())
		case O3:
			c = cpu.NewO3CPU(sys, ccfg, cpu.DefaultO3Config())
		default:
			return nil, 0, fmt.Errorf("core: unknown CPU model %q", cfg.CPU)
		}
		g.CPUs = append(g.CPUs, c)
	}
	if sink != nil {
		sink.Sink = g.CPUs[0].Core()
	}
	if g.SE != nil && cfg.Cores > 1 {
		// Multicore SE guest: hand the threading syscalls their cores and
		// park the secondaries — only SysSpawn dispatches them.
		cores := make([]*cpu.Core, len(g.CPUs))
		for i, c := range g.CPUs {
			cores[i] = c.Core()
		}
		g.SE.AttachCores(cores)
		for _, c := range cores[1:] {
			c.Park()
		}
	}
	return g, entry, nil
}

// Run executes the guest to completion (or the configured limits) and
// returns the result.
func (g *GuestSystem) Run() (*GuestResult, error) {
	return g.finish(g.Sys.Run(sim.MaxTick, 0))
}

// finish converts a raw run result into a GuestResult, shared by Run and
// the instruction-budgeted runs (RunInsts, interval sessions).
func (g *GuestSystem) finish(res sim.RunResult) (*GuestResult, error) {
	out := &GuestResult{
		SimTicks:   res.Now,
		ExitCode:   res.ExitCode,
		ExitReason: res.ExitReason,
		Stats:      g.Sys.Stats(),
		HostEvents: g.Sys.EventsServiced(),
	}
	for _, c := range g.CPUs {
		out.Insts += c.Core().CommittedInsts()
	}
	if res.Status != sim.ExitRequested {
		return out, fmt.Errorf("core: guest did not exit cleanly: %v after %d events (reason %q)",
			res.Status, res.Events, res.ExitReason)
	}
	if g.SE != nil {
		out.Stdout = g.SE.Stdout()
	}
	if g.FS != nil {
		out.Stdout = g.FS.UART.Output()
	}
	out.Expected = g.expect
	// A budget stop ends the run mid-workload, so there is no checksum to
	// verify; report it as passing rather than comparing the budget code.
	if res.ExitReason == InstBudgetReason {
		out.ChecksumOK = true
		return out, nil
	}
	out.ChecksumOK = !g.hasRef || uint32(out.ExitCode) == g.expect
	return out, nil
}

// RunGuest builds and runs a guest in one call with no host tracing.
func RunGuest(cfg GuestConfig) (*GuestResult, error) {
	g, err := BuildGuest(cfg, sim.NewNopTracer())
	if err != nil {
		return nil, err
	}
	return g.Run()
}
