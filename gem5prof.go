// Package gem5prof reproduces "Profiling gem5 Simulator" (ISPASS 2023) as a
// Go library: a gem5-like discrete-event architectural simulator (the
// guest), host micro-architecture models of the paper's evaluation platforms
// (Intel Xeon, Apple M1 Pro/Ultra, the FireSim Rocket host), and a
// co-simulation engine that profiles the simulator *as an application* —
// Top-Down cycle accounting, cache/TLB/branch statistics, hot-function
// profiles, and the sensitivity studies of the paper's Figs. 1-15.
//
// This package is the supported public surface; see the examples/ directory
// for end-to-end usage and cmd/experiments for the full reproduction
// harness.
package gem5prof

import (
	"gem5prof/internal/ckptcache"
	"gem5prof/internal/core"
	"gem5prof/internal/experiments"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/profiler"
	"gem5prof/internal/sim"
	"gem5prof/internal/simpoint"
	"gem5prof/internal/spec"
	"gem5prof/internal/uarch"
	"gem5prof/internal/workloads"
)

// Guest simulation API.
type (
	// GuestConfig describes one g5 guest simulation (CPU model, mode,
	// workload, memory system).
	GuestConfig = core.GuestConfig
	// GuestResult is a completed guest simulation.
	GuestResult = core.GuestResult
	// CPUModel selects one of the four guest CPU models.
	CPUModel = core.CPUModel
	// Mode selects SE (system-call emulation) or FS (full system).
	Mode = core.Mode
)

// Guest CPU models, in the paper's order of increasing detail.
const (
	Atomic = core.Atomic
	Timing = core.Timing
	Minor  = core.Minor
	O3     = core.O3
)

// Simulation modes.
const (
	SE = core.SE
	FS = core.FS
)

// AllCPUModels lists the four models in order of increasing detail.
var AllCPUModels = core.AllCPUModels

// RunGuest builds and runs a pure guest simulation (no host profiling).
func RunGuest(cfg GuestConfig) (*GuestResult, error) { return core.RunGuest(cfg) }

// Checkpointing (the gem5 fast-forward-and-switch flow the paper's
// methodology relies on).
type (
	// GuestSystem is a constructed, steppable guest simulation
	// (Run / RunFor / TakeCheckpoint).
	GuestSystem = core.GuestSystem
	// Checkpoint is a readable (JSON) snapshot of a quiesced guest.
	Checkpoint = core.Checkpoint
	// Tick is guest simulated time (1 tick = 1 ps; sim.Microsecond etc.).
	Tick = sim.Tick
	// RunResult is a raw stepped-run outcome.
	RunResult = sim.RunResult
)

// Guest time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// NewGuest constructs an un-run guest simulation (no host tracing); use
// RunFor + TakeCheckpoint to fast-forward and snapshot it.
func NewGuest(cfg GuestConfig) (*GuestSystem, error) {
	return core.BuildGuest(cfg, sim.NewNopTracer())
}

// DecodeCheckpoint parses an encoded checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) { return core.DecodeCheckpoint(data) }

// RestoreFromCheckpoint resumes a checkpoint under any CPU model (the gem5
// fast-forward-then-switch flow).
func RestoreFromCheckpoint(cfg GuestConfig, ck *Checkpoint) (*GuestSystem, error) {
	return core.RestoreGuest(cfg, ck, sim.NewNopTracer())
}

// Co-simulation API (the paper's measurement methodology).
type (
	// SessionConfig pairs a guest simulation with a host platform model
	// and optional co-run scenario.
	SessionConfig = core.SessionConfig
	// SessionResult carries the guest result plus the host profile.
	SessionResult = core.SessionResult
	// HostConfig describes a host machine (one Table I/II column).
	HostConfig = uarch.Config
	// HostReport is the host-side profile (Top-Down breakdown, miss
	// rates, occupancy, modeled wall-clock).
	HostReport = uarch.Report
	// Scenario describes co-running gem5 processes (Fig. 1).
	Scenario = platform.Scenario
	// HostCodeConfig tunes the synthetic simulator binary (e.g.
	// SizeFactor < 1 for the -O3 build of Fig. 12).
	HostCodeConfig = hostmodel.Config
	// Profiler is the hot-function profiler (Fig. 15).
	Profiler = profiler.Profiler
	// HugePageMode selects base/THP/EHP code backing (Figs. 10-11).
	HugePageMode = uarch.HugePageMode
)

// Huge-page modes for the host text segment.
const (
	PagesBase = uarch.PagesBase
	PagesTHP  = uarch.PagesTHP
	PagesEHP  = uarch.PagesEHP
)

// RunSession runs one co-simulation: the guest simulator executing on a
// modeled host platform.
func RunSession(cfg SessionConfig) (*SessionResult, error) { return core.RunSession(cfg) }

// SimPoint-style sampled simulation (profile on the Atomic model, simulate
// only one representative interval per program phase on the target model,
// extrapolate by cluster weight; see DESIGN.md §12).
type (
	// SampledConfig parameterizes sampling (interval length, warmup,
	// phase bound, checkpoint cache).
	SampledConfig = simpoint.Config
	// SampledResult is the extrapolated stand-in for a full session's
	// modeled seconds, with per-phase measurements attached.
	SampledResult = simpoint.Result
	// CheckpointCache is the content-addressed, self-verifying on-disk
	// store for fast-forward checkpoints (internal/ckptcache). A nil
	// *CheckpointCache is valid and means in-process memoization only.
	CheckpointCache = ckptcache.Cache
)

var (
	// RunSampled runs one co-simulation in sampled mode.
	RunSampled = simpoint.RunSampled
	// OpenCheckpointCache opens (creating if needed) a checkpoint cache
	// directory.
	OpenCheckpointCache = ckptcache.Open
)

// Host platforms (paper Table II and Table I).
var (
	// IntelXeon models the Dell server's Xeon Gold 6242R.
	IntelXeon = platform.IntelXeon
	// M1Pro models the MacBook Pro's Apple M1.
	M1Pro = platform.M1Pro
	// M1Ultra models the Mac Studio's M1 Ultra.
	M1Ultra = platform.M1Ultra
	// FireSimRocket models the FireSim host with explicit cache geometry
	// (Fig. 14's sweep knob).
	FireSimRocket = platform.FireSimRocket
	// FireSimBase is Table I's base configuration.
	FireSimBase = platform.FireSimBase
	// PlatformByName resolves "Intel_Xeon", "M1_Pro", "M1_Ultra".
	PlatformByName = platform.ByName
	// Contend derives the per-process machine under a co-run scenario.
	Contend = platform.Contend
)

// Workloads.
var (
	// WorkloadNames lists every guest workload.
	WorkloadNames = workloads.Names
	// WorkloadByName resolves one workload spec.
	WorkloadByName = workloads.ByName
	// PARSECWorkloads lists the paper's nine PARSEC/SPLASH-2x programs.
	PARSECWorkloads = workloads.PARSEC
)

// SPEC reference benchmarks (Fig. 2's bottom rows).
var (
	// SPECNames lists the three modeled SPEC CPU2017 benchmarks.
	SPECNames = spec.Names
	// SPECByName resolves one benchmark profile.
	SPECByName = spec.ByName
)

// Experiment harness: regenerate any of the paper's tables and figures.
type (
	// Experiment is one regenerated table or figure.
	Experiment = experiments.Result
	// ExperimentOptions tunes experiment cost and parallelism (Jobs bounds
	// concurrent simulation runs; output is identical for any value).
	ExperimentOptions = experiments.Options
	// ExperimentOutcome is one experiment's result from RunExperiments.
	ExperimentOutcome = experiments.Outcome
)

var (
	// ExperimentIDs lists table1, table2, fig01..fig15.
	ExperimentIDs = experiments.IDs
	// RunExperiment regenerates one table or figure.
	RunExperiment = experiments.Run
	// RunExperiments regenerates many experiments concurrently on one
	// bounded worker pool, yielding outcomes in ids order.
	RunExperiments = experiments.RunMany
	// ResetExperimentCaches drops per-process measurement caches so
	// benchmarks re-measure instead of replaying cached reports.
	ResetExperimentCaches = experiments.ResetCaches
)
