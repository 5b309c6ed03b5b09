package core_test

import (
	"math"
	"strings"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/sim"
)

func TestRunGuestDefaults(t *testing.T) {
	res, err := core.RunGuest(core.GuestConfig{Workload: "sieve", Scale: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ChecksumOK {
		t.Fatalf("checksum %#x want %#x", uint32(res.ExitCode), res.Expected)
	}
	if res.Stats == nil || res.HostEvents == 0 || res.SimTicks == 0 {
		t.Fatal("result incomplete")
	}
}

func TestRunGuestErrors(t *testing.T) {
	if _, err := core.RunGuest(core.GuestConfig{Workload: "nope"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := core.RunGuest(core.GuestConfig{Workload: "sieve", CPU: "vliw"}); err == nil {
		t.Fatal("unknown CPU accepted")
	}
	if _, err := core.RunGuest(core.GuestConfig{BootExit: true, Mode: core.SE}); err == nil {
		t.Fatal("SE boot-exit accepted")
	}
	if _, err := core.RunGuest(core.GuestConfig{Mode: core.FS, Workload: "nope"}); err == nil {
		t.Fatal("unknown FS workload accepted")
	}
}

// TestSessionRejectsInvalidHost checks that a host config the uarch
// constructors cannot build is returned as an error, not a panic.
func TestSessionRejectsInvalidHost(t *testing.T) {
	host := platform.IntelXeon()
	host.L1I.Ways = 0
	_, err := core.RunSession(core.SessionConfig{
		Guest:    core.GuestConfig{Workload: "sieve", Scale: 64},
		Host:     host,
		Scenario: platform.Scenario{Procs: 2},
	})
	if err == nil || !strings.Contains(err.Error(), "L1I") {
		t.Fatalf("RunSession with a zero-way L1I: err = %v, want an L1I error", err)
	}
}

// TestCoresBounds pins the one core-count knob: 0 defaults to one core,
// MaxCores builds, and anything past it (or negative) is rejected at build
// time in both SE and FS mode.
func TestCoresBounds(t *testing.T) {
	for _, mode := range []core.Mode{core.SE, core.FS} {
		for _, c := range []struct {
			cores, want int
			ok          bool
		}{
			{0, 1, true},
			{core.MaxCores, core.MaxCores, true},
			{core.MaxCores + 1, 0, false},
			{-1, 0, false},
		} {
			cfg := core.GuestConfig{CPU: core.Timing, Mode: mode, Workload: "sieve", Cores: c.cores}
			if mode == core.FS {
				cfg.BootExit = true
			}
			g, err := core.BuildGuest(cfg, sim.NewNopTracer())
			if !c.ok {
				if err == nil {
					t.Errorf("%s cores=%d: built, want an error", mode, c.cores)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s cores=%d: %v", mode, c.cores, err)
			}
			if len(g.CPUs) != c.want {
				t.Errorf("%s cores=%d: %d CPUs, want %d", mode, c.cores, len(g.CPUs), c.want)
			}
		}
	}
}

func TestSessionProducesConsistentReport(t *testing.T) {
	res, err := core.RunSession(core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.Timing, Workload: "sieve", Scale: 1024},
		Host:  platform.IntelXeon(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Guest.ChecksumOK {
		t.Fatal("guest result wrong under co-simulation")
	}
	if res.SimSeconds() <= 0 {
		t.Fatal("no host time")
	}
	l1 := res.Host.Level1
	sum := l1.Retiring + l1.FrontEndBound + l1.BadSpeculation + l1.BackEndBound
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("top-down sums to %v", sum)
	}
	if res.TextBytes == 0 || res.NumFuncs == 0 || res.CalledFuncs == 0 {
		t.Fatal("code model summary empty")
	}
	if res.CalledFuncs > res.NumFuncs {
		t.Fatal("called > registered")
	}
}

func TestSessionDeterminism(t *testing.T) {
	run := func() float64 {
		res, err := core.RunSession(core.SessionConfig{
			Guest: core.GuestConfig{CPU: core.Atomic, Workload: "canneal", Scale: 128},
			Host:  platform.M1Pro(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Host.Cycles
	}
	if run() != run() {
		t.Fatal("co-simulation nondeterministic")
	}
}

func TestSessionCosimDoesNotPerturbGuest(t *testing.T) {
	pure, err := core.RunGuest(core.GuestConfig{CPU: core.O3, Workload: "dedup", Scale: 2048})
	if err != nil {
		t.Fatal(err)
	}
	cosim, err := core.RunSession(core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.O3, Workload: "dedup", Scale: 2048},
		Host:  platform.IntelXeon(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pure.SimTicks != cosim.Guest.SimTicks || pure.Insts != cosim.Guest.Insts ||
		pure.ExitCode != cosim.Guest.ExitCode {
		t.Fatalf("host model perturbed the guest: %v/%v vs %v/%v",
			pure.SimTicks, pure.Insts, cosim.Guest.SimTicks, cosim.Guest.Insts)
	}
}

func TestSessionM1FasterThanXeon(t *testing.T) {
	gc := core.GuestConfig{CPU: core.O3, Workload: "water_nsquared", Scale: 40}
	xeon, err := core.RunSession(core.SessionConfig{Guest: gc, Host: platform.IntelXeon()})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := core.RunSession(core.SessionConfig{Guest: gc, Host: platform.M1Pro()})
	if err != nil {
		t.Fatal(err)
	}
	ratio := xeon.SimSeconds() / m1.SimSeconds()
	if ratio < 1.3 || ratio > 5 {
		t.Fatalf("M1 advantage %.2fx outside the paper's band", ratio)
	}
}

func TestSessionCoRunSlower(t *testing.T) {
	gc := core.GuestConfig{CPU: core.Atomic, Workload: "sieve", Scale: 1536}
	single, err := core.RunSession(core.SessionConfig{Guest: gc, Host: platform.IntelXeon()})
	if err != nil {
		t.Fatal(err)
	}
	corun, err := core.RunSession(core.SessionConfig{
		Guest: gc, Host: platform.IntelXeon(),
		Scenario: platform.Scenario{Procs: 40, SMT: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if corun.SimSeconds() <= single.SimSeconds() {
		t.Fatalf("SMT co-run (%.5f) should be slower than single (%.5f)",
			corun.SimSeconds(), single.SimSeconds())
	}
}

func TestSessionProfiler(t *testing.T) {
	res, err := core.RunSession(core.SessionConfig{
		Guest:   core.GuestConfig{CPU: core.Atomic, Workload: "sieve", Scale: 1024},
		Host:    platform.IntelXeon(),
		Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Prof == nil {
		t.Fatal("profiler missing")
	}
	top := res.Prof.Top(5)
	if len(top) != 5 || top[0].Cycles <= 0 {
		t.Fatalf("top = %+v", top)
	}
	if !strings.Contains(res.Prof.Render(3), "%CPU") {
		t.Fatal("render malformed")
	}
	cdf := res.Prof.CDF(50)
	if cdf[len(cdf)-1] > 1.000001 {
		t.Fatal("CDF exceeds 1")
	}
}

func TestSessionO3BuildFaster(t *testing.T) {
	gc := core.GuestConfig{CPU: core.Atomic, Workload: "sieve", Scale: 2048}
	base, err := core.RunSession(core.SessionConfig{Guest: gc, Host: platform.IntelXeon()})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.RunSession(core.SessionConfig{
		Guest: gc, Host: platform.IntelXeon(),
		HostCode: hostmodel.Config{SizeFactor: 0.97},
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt.SimSeconds() >= base.SimSeconds() {
		t.Fatalf("-O3 build (%.5f) should beat baseline (%.5f)",
			opt.SimSeconds(), base.SimSeconds())
	}
}

func TestFSBootSession(t *testing.T) {
	res, err := core.RunSession(core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.Timing, Mode: core.FS, BootExit: true, BootKBs: 8},
		Host:  platform.M1Ultra(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Guest.Stdout, "g5 kernel") {
		t.Fatal("no boot banner")
	}
	if res.Guest.ExitReason != "guest poweroff" {
		t.Fatalf("reason = %q", res.Guest.ExitReason)
	}
}
