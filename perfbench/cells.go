package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/sim"
	"gem5prof/internal/uarch"
)

// cell is one simulation a workload runs: a guest, and for co-simulation
// cells the host platform it is profiled on.
type cell struct {
	name     string
	guest    core.GuestConfig
	host     uarch.Config
	cosim    bool
	pipeline core.PipelineMode // zero: the default mode
}

// cosimCells are the co-simulation cells: uarch replay does most of their
// host work, and the four host models exercise it differently (DSB/MITE
// with 4 KB pages, 16 KB pages, FireSim's explicit geometry; SE and FS).
// sieve@8192 is the harness's own FireSim cell (fig14's full-size scale).
func cosimCells(seed int64) []cell {
	se := func(cpu core.CPUModel, wl string, scale int) core.GuestConfig {
		return core.GuestConfig{CPU: cpu, Mode: core.SE, Workload: wl, Scale: scale, Seed: seed}
	}
	return []cell{
		{name: "o3-water_nsquared@40/Intel_Xeon", guest: se(core.O3, "water_nsquared", 40), host: platform.IntelXeon(), cosim: true},
		{name: "minor-canneal@512/M1_Pro", guest: se(core.Minor, "canneal", 512), host: platform.M1Pro(), cosim: true},
		{name: "timing-dedup@4096/M1_Ultra", guest: se(core.Timing, "dedup", 4096), host: platform.M1Ultra(), cosim: true},
		{name: "atomic-sieve@8192/FireSimBase", guest: se(core.Atomic, "sieve", 8192), host: platform.FireSimBase(), cosim: true},
		{name: "o3-fs-boot-exit/Intel_Xeon", guest: core.GuestConfig{CPU: core.O3, Mode: core.FS, BootExit: true, Seed: seed}, host: platform.IntelXeon(), cosim: true},
	}
}

// guestCells are pure guest simulations: the guest event loop and the MESI
// directory do all the work, hostmodel and uarch none. Shards are left to
// -shards auto, which is serial below four host cores.
func guestCells(seed int64) []cell {
	g := func(cpu core.CPUModel, wl string, scale, cores int) core.GuestConfig {
		return core.GuestConfig{CPU: cpu, Mode: core.SE, Workload: wl, Scale: scale, Cores: cores, Seed: seed, Shards: core.ShardAuto}
	}
	return []cell{
		{name: "o3-water_nsquared@384", guest: g(core.O3, "water_nsquared", 384, 1)},
		{name: "minor-canneal@8192", guest: g(core.Minor, "canneal", 8192, 1)},
		{name: "timing-dotprod_mt@65536x4", guest: g(core.Timing, "dotprod_mt", 65536, 4)},
		{name: "timing-matmul_mt x4", guest: g(core.Timing, "matmul_mt", 0, 4)},
		{name: "o3-fs-boot-exit", guest: core.GuestConfig{CPU: core.O3, Mode: core.FS, BootExit: true, Seed: seed, Shards: core.ShardAuto}},
	}
}

// digest fingerprints everything a cell models: the guest's committed
// instructions, simulated ticks, exit code and full statistics dump, plus
// the host machine's report for co-simulation cells.
func digest(g *core.GuestResult, host *uarch.Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "insts=%d ticks=%d exit=%d\n%s", g.Insts, g.SimTicks, g.ExitCode, g.Stats.Dump())
	if host != nil {
		fmt.Fprintf(h, "%+v", *host)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check runs one cell body, recovering a panic, and returns the result
// together with the reason it fails the oracle, if it does: an error, a
// panic, a failed guest checksum, or a digest other than want.
func check(want string, body func() (*core.GuestResult, *uarch.Report, error)) (g *core.GuestResult, fail error) {
	defer func() {
		if p := recover(); p != nil {
			g, fail = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	g, host, err := body()
	switch {
	case err != nil:
		return nil, err
	case !g.ChecksumOK:
		return g, fmt.Errorf("guest checksum failed: exit %d, want %d", g.ExitCode, g.Expected)
	}
	if got := digest(g, host); got != want {
		return g, fmt.Errorf("digest %.12s differs from reference %.12s", got, want)
	}
	return g, nil
}

// runUntraced runs the cell the way users do: core.RunSession in default
// modes for co-simulation cells, core.RunGuest otherwise.
func runUntraced(c cell) (*core.GuestResult, *uarch.Report, error) {
	if !c.cosim {
		g, err := core.RunGuest(c.guest)
		return g, nil, err
	}
	r, err := core.RunSession(core.SessionConfig{Guest: c.guest, Host: c.host, Pipeline: c.pipeline})
	if err != nil {
		return nil, nil, err
	}
	return r.Guest, &r.Host, nil
}

// mapSession hands the finished code model's address map to the machine.
func mapSession(m *uarch.Machine, cm *hostmodel.CodeModel) {
	tb, te := cm.TextRange()
	m.MapText(tb, te)
	hb, he := cm.HeapRange()
	m.MapData(hb, he)
	stack := hostmodel.DefaultConfig().StackBase
	m.MapData(stack-(1<<20), stack+(1<<12))
}

// setUp builds a cell up to its first guest event and discards it: the
// guest over its tracer, and for co-simulation cells the code model with
// its function layout and the mapped host machine.
func setUp(c cell) error {
	if !c.cosim {
		_, err := core.BuildGuest(c.guest, sim.NewNopTracer())
		return err
	}
	m := uarch.NewMachine(c.host)
	cm := hostmodel.New(hostmodel.DefaultConfig(), m)
	if _, err := core.BuildGuest(c.guest, cm); err != nil {
		return err
	}
	mapSession(m, cm)
	return nil
}
