package core

import (
	"fmt"

	"gem5prof/internal/isa"
	"gem5prof/internal/sim"
)

// InstBudgetReason is the exit reason reported when an instruction-budgeted
// run (RunInsts, RunIntervalSession) stops the guest because its budget is
// exhausted rather than because the workload exited.
const InstBudgetReason = "instruction budget reached"

// hookInsts installs one shared commit hook across all cores that counts
// committed instructions, invokes mark(i) when the count reaches marks[i]
// (marks must be strictly increasing and positive), and requests a
// simulation exit when it reaches total. It returns a teardown function
// that removes the hooks and reports the final count. The countdown is
// shared across cores: the budget is a whole-guest instruction total,
// matching how Checkpoint.Insts and the BBV profiler count.
func (g *GuestSystem) hookInsts(marks []uint64, total uint64, mark func(i int)) func() uint64 {
	executed := uint64(0)
	next := 0
	hook := func(_ uint32, _ isa.Inst) {
		executed++
		if next < len(marks) && executed == marks[next] {
			mark(next)
			next++
		}
		if executed == total {
			g.Sys.RequestExit(InstBudgetReason, 0)
		}
	}
	for _, c := range g.CPUs {
		c.Core().SetCommitHook(hook)
	}
	return func() uint64 {
		for _, c := range g.CPUs {
			c.Core().SetCommitHook(nil)
		}
		return executed
	}
}

// RunInsts services events until budget further instructions have committed
// across all cores, or the workload exits, whichever comes first. The
// result's ExitReason distinguishes the two (InstBudgetReason vs. the
// workload's own reason).
//
// The stop is abrupt: it fires from the commit hook of the budget's last
// instruction, before the owning CPU model has advanced its PC or
// rescheduled its next event, so the guest must NOT be resumed with further
// Run calls afterwards. Statistics and memory state up to and including
// that instruction are valid; that is all an interval measurement needs.
func (g *GuestSystem) RunInsts(budget uint64) (*GuestResult, error) {
	if budget == 0 {
		return nil, fmt.Errorf("core: instruction budget must be positive")
	}
	done := g.hookInsts(nil, budget, nil)
	defer done()
	return g.finish(g.Sys.Run(sim.MaxTick, 0))
}

// IntervalResult is one measured interval of a sampled co-simulation.
type IntervalResult struct {
	// Session carries the full session state (guest result, host report)
	// for callers that want more than the headline numbers. Its Host
	// report covers warmup and the measured window together — cumulative
	// across windows when the IntervalRunner's machine is reused; Seconds
	// below covers this window alone.
	Session *SessionResult
	// Seconds is the modeled host time spent inside the measured window
	// (warmup excluded).
	Seconds float64
	// Insts is the number of instructions committed inside the window.
	Insts uint64
	// SubSeconds and SubInsts split the window into up to three
	// consecutive sub-windows (thirds of the budget). A window restored
	// from a checkpoint starts with cold microarchitectural state, so its
	// early sub-windows run slower than its late ones; samplers use the
	// decay across the sub-windows to extrapolate that transient away
	// (see internal/simpoint). Sums equal Seconds and Insts exactly.
	SubSeconds []float64
	SubInsts   []uint64
	// Completed reports whether the full budget was consumed; false means
	// the workload exited first, which is normal for a tail interval.
	Completed bool
}

// IntervalRunner measures successive interval sessions of one sweep cell
// on a single persistent host machine. Each Run builds a fresh guest
// (restored from its checkpoint), but the modeled machine — caches, TLBs,
// predictors, clock — carries over from the previous Run, the way it would
// across the same instructions of one long full run. Without this, every
// measured window pays the machine's full cold start, which no affordable
// per-window warmup can absorb. Runs are serial by construction; a runner
// must not be shared across goroutines.
type IntervalRunner struct {
	cfg  SessionConfig
	prev *cosim
}

// NewIntervalRunner returns a runner for one session configuration. The
// host machine is created on the first Run and reused afterwards.
func NewIntervalRunner(cfg SessionConfig) *IntervalRunner {
	return &IntervalRunner{cfg: cfg}
}

// RunIntervalSession co-simulates one slice of a guest on a fresh host
// machine: it builds the session (restoring from ck when non-nil, else
// running from the start), executes warmup instructions to re-warm
// microarchitectural state that a checkpoint does not carry, then measures
// the modeled host time of the next budget instructions. This is the
// SimPoint leg of the paper's fast-forward→restore flow: cfg.Guest.CPU
// selects the detailed target model, while the checkpoint itself was taken
// by the Atomic model. Samplers measuring several windows of the same cell
// should use one IntervalRunner instead so the machine stays warm across
// windows.
func RunIntervalSession(cfg SessionConfig, ck *Checkpoint, warmup, budget uint64) (*IntervalResult, error) {
	return NewIntervalRunner(cfg).Run(ck, warmup, budget)
}

// Run measures one interval window; see RunIntervalSession.
//
// The warmup→measure boundary reads the host machine's clock mid-run. The
// function profiler is rejected outright because its reports would mix
// warmup with measurement.
func (r *IntervalRunner) Run(ck *Checkpoint, warmup, budget uint64) (*IntervalResult, error) {
	cfg := r.cfg
	if cfg.Profile {
		return nil, fmt.Errorf("core: interval sessions do not support the function profiler")
	}
	if budget == 0 {
		return nil, fmt.Errorf("core: interval budget must be positive")
	}
	total := warmup + budget
	if total < budget {
		return nil, fmt.Errorf("core: warmup %d + budget %d overflows", warmup, budget)
	}
	cs, err := newCosimOn(r.prev, cfg, func(tr sim.Tracer) (*GuestSystem, error) {
		if ck == nil {
			return BuildGuest(cfg.Guest, tr)
		}
		return RestoreGuest(cfg.Guest, ck, tr)
	})
	if err != nil {
		return nil, err
	}
	r.prev = cs
	g := cs.guest

	// Clock-read boundaries: the warmup→measure edge, plus interior marks
	// at thirds of the budget that delimit the sub-windows.
	bounds := []uint64{warmup}
	if sub := budget / 3; sub > 0 {
		bounds = append(bounds, warmup+sub, warmup+2*sub)
	}
	times := make([]float64, len(bounds))
	reached := 0
	markAt := func(i int) {
		times[i] = cs.machine.TimeSeconds()
		reached = i + 1
	}
	hookBounds, off := bounds, 0
	if warmup == 0 { // executed never equals 0, so pre-mark the first edge
		markAt(0)
		hookBounds, off = bounds[1:], 1
	}
	done := g.hookInsts(hookBounds, total, func(i int) { markAt(i + off) })
	gres, err := g.finish(g.Sys.Run(sim.MaxTick, 0))
	executed := done()
	if err != nil {
		return nil, err
	}
	if reached == 0 || executed <= warmup {
		return nil, fmt.Errorf("core: workload exited after %d instructions, before the measured window (warmup %d)",
			executed, warmup)
	}
	end := cs.machine.TimeSeconds()
	var subSecs []float64
	var subInsts []uint64
	for i := 1; i < reached; i++ {
		subSecs = append(subSecs, times[i]-times[i-1])
		subInsts = append(subInsts, bounds[i]-bounds[i-1])
	}
	if executed > bounds[reached-1] { // close the final (possibly partial) sub-window
		subSecs = append(subSecs, end-times[reached-1])
		subInsts = append(subInsts, executed-bounds[reached-1])
	}
	return &IntervalResult{
		Session:    cs.result(gres),
		Seconds:    end - times[0],
		Insts:      executed - warmup,
		SubSeconds: subSecs,
		SubInsts:   subInsts,
		Completed:  gres.ExitReason == InstBudgetReason,
	}, nil
}
