package core

import (
	"encoding/binary"
	"hash/fnv"
	"io"

	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/profiler"
	"gem5prof/internal/sim"
	"gem5prof/internal/uarch"
)

// SessionConfig describes one co-simulation: a guest g5 simulation executed
// on a modeled host platform — the paper's unit of measurement.
type SessionConfig struct {
	Guest GuestConfig
	// Host is the host machine model (see internal/platform).
	Host uarch.Config
	// Scenario applies co-run/SMT contention (Fig. 1).
	Scenario platform.Scenario
	// HostCode overrides the code-model parameters; zero value = defaults.
	// SizeFactor < 1 models the -O3 build (Fig. 12).
	HostCode hostmodel.Config
	// Profile attaches the function profiler (Fig. 15). It adds overhead,
	// so it is off by default.
	Profile bool
	// Deprecated: Pipeline is ignored. Every co-simulation runs the guest,
	// the trace synthesis and the host machine on one goroutine.
	Pipeline PipelineMode
}

// SessionResult is one completed co-simulation.
type SessionResult struct {
	// Guest is the guest-side result (simulated ticks, instructions).
	Guest *GuestResult
	// Host is the host machine's profile; Host.TimeSeconds is the paper's
	// "simulation time (host seconds)" metric.
	Host uarch.Report
	// Prof is the function profiler when SessionConfig.Profile was set.
	Prof *profiler.Profiler
	// Code summarizes the synthetic simulator binary.
	TextBytes   uint64
	NumFuncs    int
	CalledFuncs int
}

// SimSeconds returns the modeled host wall-clock of the simulation.
func (r *SessionResult) SimSeconds() float64 { return r.Host.TimeSeconds }

// DeriveSeed returns the deterministic RNG seed for one independent run
// (cell) of a named experiment. Seeds are a pure function of the experiment
// id and the cell's position in the experiment's sequential cell order —
// never of a shared RNG or of run scheduling — so a parallel harness draws
// exactly the seeds a sequential one would, cell for cell.
func DeriveSeed(experiment string, cell int) int64 {
	h := fnv.New64a()
	io.WriteString(h, experiment)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(cell))
	h.Write(b[:])
	s := int64(h.Sum64() >> 1) // keep it positive; Seed==0 means "default"
	if s == 0 {
		s = 1
	}
	return s
}

// cosim bundles the host side of one co-simulation — the modeled machine and
// the synthetic simulator binary — together with the guest it traces.
// RunSession and RunIntervalSession share this assembly; only how (and how
// much of) the guest runs differs.
type cosim struct {
	machine *uarch.Machine
	cm      *hostmodel.CodeModel
	prof    *profiler.Profiler
	guest   *GuestSystem
}

// newCosimOn builds the host machine and code model, constructs the guest
// via build (BuildGuest for fresh runs, RestoreGuest for checkpoint
// resumes), and hands the finished address map to the machine's TLBs. A
// non-nil prev supplies a previous cosim whose host side — the modeled
// machine and the code model — is reused instead. IntervalRunner uses
// this so successive interval measurements of one cell keep the machine's
// caches, TLBs and predictors warm (the way one long full run would) and
// skip re-laying-out the synthetic simulator binary. The reused guest
// build re-registers its component functions, which the code model dedups
// back to the first build's layout, so the address map already handed to
// the machine's TLBs stays correct; re-adding the same regions would push
// lookups onto the slow overlapping-region path, hence the fresh guard.
func newCosimOn(prev *cosim, cfg SessionConfig, build func(tr sim.Tracer) (*GuestSystem, error)) (*cosim, error) {
	if prev != nil {
		cs := &cosim{machine: prev.machine, cm: prev.cm}
		// Rewind the replay state so this build's allocations and access
		// patterns land on the first build's addresses — the ones the
		// machine's map covers and its warm caches hold.
		cs.cm.ResetRun()
		g, err := build(cs.cm)
		if err != nil {
			return nil, err
		}
		cs.guest = g
		return cs, nil
	}
	host := platform.Contend(cfg.Host, cfg.Scenario)
	if err := host.Validate(); err != nil {
		return nil, err
	}
	machine := uarch.NewMachine(host)
	cs := &cosim{machine: machine}

	hc := cfg.HostCode
	if hc.TextBase == 0 {
		def := hostmodel.DefaultConfig()
		if hc.SizeFactor > 0 {
			def.SizeFactor = hc.SizeFactor
		}
		hc = def
	}
	cs.cm = hostmodel.New(hc, machine)

	if cfg.Profile {
		cs.prof = profiler.New(machine, cs.cm)
		cs.cm.SetProfiler(cs.prof)
	}

	g, err := build(cs.cm)
	if err != nil {
		return nil, err
	}
	cs.guest = g

	// The simulator binary is now fully laid out; hand the address map to
	// the host machine so its TLBs know the page backing.
	tb, te := cs.cm.TextRange()
	machine.MapText(tb, te)
	hb, he := cs.cm.HeapRange()
	machine.MapData(hb, he)
	machine.MapData(hc.StackBase-(1<<20), hc.StackBase+(1<<12))
	return cs, nil
}

// result assembles the SessionResult for a completed run.
func (cs *cosim) result(gres *GuestResult) *SessionResult {
	return &SessionResult{
		Guest:       gres,
		Host:        cs.machine.Report(),
		Prof:        cs.prof,
		TextBytes:   cs.cm.TextBytes(),
		NumFuncs:    cs.cm.NumFuncs(),
		CalledFuncs: cs.cm.CalledFuncs(),
	}
}

// RunSession builds and runs one co-simulation.
//
// RunSession is safe for concurrent use: every call constructs its own guest
// system, host machine, and code model, and the package-level state it reads
// (workload registry, platform tables, SPEC profiles) is immutable after
// init. The parallel experiment runner relies on this. Each session runs on
// the calling goroutine alone, so a harness admitting Jobs concurrent
// sessions runs exactly Jobs simulation goroutines.
func RunSession(cfg SessionConfig) (*SessionResult, error) {
	cs, err := newCosimOn(nil, cfg, func(tr sim.Tracer) (*GuestSystem, error) { return BuildGuest(cfg.Guest, tr) })
	if err != nil {
		return nil, err
	}
	gres, err := cs.guest.Run()
	if err != nil {
		return nil, err
	}
	return cs.result(gres), nil
}
