// Package cpu implements the g5 guest CPU models profiled by the paper:
// AtomicSimpleCPU, TimingSimpleCPU, the Minor in-order pipeline, and the O3
// out-of-order core, together with the branch predictors they share.
//
// All models retire bit-identical architectural results because they share
// the isa package's executor. The models differ in how they account guest
// time and — critically for the reproduced paper — in how much *host-side*
// work (functions touched, data structures walked) each simulated
// instruction generates.
package cpu

import (
	"fmt"
	"io"

	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// FuncMem is the functional memory interface a core executes against. It is
// implemented by guest.Memory and by sysemu's MMIO-aware wrapper.
type FuncMem interface {
	Read(addr uint32, size int) (uint64, error)
	Write(addr uint32, size int, v uint64) error
	// HostAddr translates a guest address into the synthetic host address of
	// its backing storage, for the host data-traffic model.
	HostAddr(addr uint32) uint64
}

// Env handles environment interactions of a core: system calls in SE mode,
// traps in FS mode, and breakpoints.
type Env interface {
	// Ecall services an environment call. The handler reads and writes the
	// core's registers and may halt the core or redirect its PC.
	Ecall(c *Core)
	// Ebreak services a breakpoint; bare-metal programs use it to exit.
	Ebreak(c *Core)
}

// Machine CSR numbers implemented by the cores.
const (
	CSRMStatus  = 0x300
	CSRMTVec    = 0x305
	CSRMEPC     = 0x341
	CSRMCause   = 0x342
	CSRMScratch = 0x340
	CSRCycle    = 0xC00
	CSRInstret  = 0xC02
	CSRHartID   = 0xF14
)

// MStatusMIE is the machine-interrupt-enable bit in mstatus.
const MStatusMIE = 1 << 3

// Trap causes written to mcause.
const (
	CauseEcall          = 11
	CauseTimerInterrupt = 0x8000_0007
	CauseExternalIntr   = 0x8000_000B
)

// Config carries the construction parameters shared by all CPU models.
type Config struct {
	Name string
	// ClockPeriod is the guest clock period in ticks (1000 = 1 GHz).
	ClockPeriod sim.Tick
	// Mem is the functional memory (possibly MMIO-wrapped).
	Mem FuncMem
	// Env handles ecall/ebreak. Required.
	Env Env
	// IPort and DPort are the timing/atomic memory ports. A nil port is
	// replaced by an ideal single-cycle memory.
	IPort mem.Port
	DPort mem.Port
	// HartID distinguishes cores in a multi-core guest.
	HartID uint32
	// ExecTrace, when non-nil, receives one line per committed instruction
	// (gem5's --debug-flags=Exec).
	ExecTrace io.Writer
}

func (c *Config) fill(sys *sim.System) {
	if c.Name == "" {
		panic("cpu: config needs a name")
	}
	if c.ClockPeriod == 0 {
		c.ClockPeriod = sim.Nanosecond // 1 GHz
	}
	if c.Mem == nil {
		panic("cpu: config needs functional memory")
	}
	if c.Env == nil {
		panic("cpu: config needs an environment")
	}
	if c.IPort == nil {
		c.IPort = IdealPort{Sys: sys, Latency: c.ClockPeriod}
	}
	if c.DPort == nil {
		c.DPort = IdealPort{Sys: sys, Latency: c.ClockPeriod}
	}
}

// IdealPort is a perfect memory port with a fixed latency.
type IdealPort struct {
	Sys     *sim.System
	Latency sim.Tick
}

// SendTiming implements mem.Port.
func (p IdealPort) SendTiming(acc mem.Access, done func()) {
	if done != nil {
		p.Sys.ScheduleIn(sim.NewEvent("ideal.resp", 0, done), p.Latency)
	}
}

// AtomicLatency implements mem.Port.
func (p IdealPort) AtomicLatency(acc mem.Access) sim.Tick { return p.Latency }

// Core is the architectural state and bookkeeping shared by all CPU models.
// It implements isa.Context.
type Core struct {
	name  string
	sys   *sim.System
	cfg   Config
	fmem  FuncMem
	env   Env
	clock sim.Tick

	regs  [32]uint32
	fregs [32]float64
	pc    uint32
	csrs  map[uint32]uint32

	halted     bool
	intPending bool
	waiting    bool // parked in WFI
	wakeup     func()
	// redirect, when set, tells a buffered-frontend model (Minor, O3)
	// that a parked core's architectural PC moved, so stale fetch state
	// must be squashed before the core resumes. Only fired by SetPC
	// while the core is parked: a running core's redirects are already
	// handled by the models' own pc-mismatch checks, and adding a squash
	// there would change single-core statistics.
	redirect func(pc uint32)

	// Statistics common to every model.
	numInsts    *sim.Counter
	numBranches *sim.Counter
	numLoads    *sim.Counter
	numStores   *sim.Counter
	numEcalls   *sim.Counter

	// Host-model function attribution.
	fnFetch   sim.FuncID
	fnDecode  sim.FuncID
	fnAdvance sim.FuncID
	fnExec    [12]sim.FuncID // indexed by isa.Class
	fnTrap    sim.FuncID

	// libFns is the model's long tail of cold simulator code (stat
	// callbacks, decode tables, SimObject plumbing); one is touched every
	// libStride instructions, reproducing gem5's flat hot-function CDF.
	libFns    []sim.FuncID
	libRotor  int
	libStride uint64

	// commitHook, when non-nil, observes every architecturally committed
	// instruction. The conformance subsystem uses it for lockstep trace
	// hashing and first-divergence capture.
	commitHook func(pc uint32, in isa.Inst)
}

func newCore(sys *sim.System, model string, cfg Config) *Core {
	cfg.fill(sys)
	c := &Core{
		name:  cfg.Name,
		sys:   sys,
		cfg:   cfg,
		fmem:  cfg.Mem,
		env:   cfg.Env,
		clock: cfg.ClockPeriod,
		csrs:  make(map[uint32]uint32),
	}
	c.csrs[CSRHartID] = cfg.HartID
	st := sys.Stats()
	c.numInsts = st.Counter(cfg.Name+".committedInsts", "instructions committed")
	c.numBranches = st.Counter(cfg.Name+".branches", "control instructions committed")
	c.numLoads = st.Counter(cfg.Name+".loads", "loads committed")
	c.numStores = st.Counter(cfg.Name+".stores", "stores committed")
	c.numEcalls = st.Counter(cfg.Name+".ecalls", "environment calls")

	// Host code footprint and dispatch polymorphism scale strongly with
	// model detail: AtomicSimpleCPU is a tight, nearly monomorphic loop
	// while O3 touches far more (and megamorphic) code per instruction —
	// the root of the paper's Fig. 4 contrast.
	factor := 1.0
	libStride := uint64(16)
	execFlags := sim.FuncVirtual
	switch model {
	case "AtomicSimpleCPU":
		factor = 0.35
		libStride = 26
	case "TimingSimpleCPU":
		factor = 0.80
		libStride = 18
	case "MinorCPU":
		factor = 1.15
		libStride = 12
		execFlags |= sim.FuncPoly
	case "O3CPU":
		factor = 1.40
		libStride = 10
		execFlags |= sim.FuncPoly
	}
	sz := func(base int) int { return int(float64(base) * factor) }

	tr := sys.Tracer()
	c.fnFetch = tr.RegisterFunc(model+"::fetch", sz(2200), sim.FuncVirtual|sim.FuncHot)
	c.fnDecode = tr.RegisterFunc(model+"::decodeInst", sz(3800), sim.FuncVirtual|sim.FuncHot)
	c.fnAdvance = tr.RegisterFunc(model+"::advancePC", sz(900), sim.FuncVirtual|sim.FuncHot)
	c.fnTrap = tr.RegisterFunc(model+"::trap", sz(2600), sim.FuncVirtual|sim.FuncCold)
	classSizes := [...]struct {
		cls  isa.Class
		size int
	}{
		{isa.ClassIntAlu, 1900},
		{isa.ClassIntMult, 1100},
		{isa.ClassIntDiv, 1100},
		{isa.ClassMemRead, 3400},
		{isa.ClassMemWrite, 3200},
		{isa.ClassBranch, 2100},
		{isa.ClassFloatAdd, 1500},
		{isa.ClassFloatMult, 1300},
		{isa.ClassFloatDiv, 900},
		{isa.ClassFloatSqrt, 700},
		{isa.ClassFloatCvt, 800},
		{isa.ClassSystem, 2400},
	}
	for _, cs := range classSizes {
		c.fnExec[cs.cls] = tr.RegisterFunc(fmt.Sprintf("%s::execute<%s>", model, cs.cls), sz(cs.size), execFlags)
	}
	c.registerLib(model, libFuncCount(model))
	c.libStride = libStride
	return c
}

// libFuncCount sizes the cold-code tail per model. With the default helper
// fanout these produce total function counts matching the paper's Fig. 15
// (1602/2557/3957/5209 for Atomic/Timing/Minor/O3).
func libFuncCount(model string) int {
	switch model {
	case "AtomicSimpleCPU":
		return 85
	case "TimingSimpleCPU":
		return 155
	case "MinorCPU":
		return 260
	case "O3CPU":
		return 354
	}
	return 60
}

// registerLib registers n cold library functions touched round-robin during
// execution.
func (c *Core) registerLib(model string, n int) {
	tr := c.sys.Tracer()
	for i := 0; i < n; i++ {
		size := 180 + (i*137)%900
		c.libFns = append(c.libFns,
			tr.RegisterFunc(fmt.Sprintf("%s::lib%d", model, i), size, sim.FuncVirtual|sim.FuncCold))
	}
}

// Name returns the core's SimObject name.
func (c *Core) Name() string { return c.name }

// System returns the owning system.
func (c *Core) System() *sim.System { return c.sys }

// Clock returns the clock period in ticks.
func (c *Core) Clock() sim.Tick { return c.clock }

// CommittedInsts returns the number of retired instructions.
func (c *Core) CommittedInsts() uint64 { return c.numInsts.Count() }

// SetCommitHook installs fn on the core's retire path: it fires once per
// architecturally committed instruction with the pre-execution PC and the
// decoded form, in commit order, on every CPU model. A nil fn disables the
// hook. Speculative (squashed) instructions never reach it.
func (c *Core) SetCommitHook(fn func(pc uint32, in isa.Inst)) { c.commitHook = fn }

// Halted reports whether the core has stopped permanently.
func (c *Core) Halted() bool { return c.halted }

// Halt stops the core permanently (e.g. SE-mode exit).
func (c *Core) Halt() { c.halted = true }

// Waiting reports whether the core is parked in WFI.
func (c *Core) Waiting() bool { return c.waiting }

// HartID returns the core's hart id (CSRHartID).
func (c *Core) HartID() uint32 { return c.cfg.HartID }

// Park stops the core at the next instruction boundary without halting it,
// reusing the WFI wait machinery every model already honours: the model's
// tick loop sees waiting and lets its events drain. The threading syscall
// surface parks secondary cores before first spawn and blocked joiners /
// futex waiters; Unpark resumes them.
func (c *Core) Park() { c.waiting = true }

// Unpark resumes a parked core one clock later (via the model's wakeup
// event). A core that is not parked is left untouched, so a spurious wake
// is harmless.
func (c *Core) Unpark() {
	if !c.waiting {
		return
	}
	c.waiting = false
	if c.wakeup != nil {
		c.wakeup()
	}
}

// SetPC redirects the core (used by environments during traps, and by
// the threading syscalls to aim a parked core at a spawned thread's
// entry). Redirecting a parked core also squashes the model's fetch
// state: a buffered frontend would otherwise resume fetching the old
// stream and drop every instruction as wrong-path — forever, if the old
// stream's predicted control flow loops.
func (c *Core) SetPC(pc uint32) {
	c.pc = pc
	if c.waiting && c.redirect != nil {
		c.redirect(pc)
	}
}

// RaiseInterrupt marks an interrupt pending and wakes a WFI'd core.
func (c *Core) RaiseInterrupt() {
	c.intPending = true
	if c.waiting {
		c.waiting = false
		if c.wakeup != nil {
			c.wakeup()
		}
	}
}

// ClearInterrupt clears the pending interrupt line.
func (c *Core) ClearInterrupt() { c.intPending = false }

// InterruptReady reports whether an interrupt is pending and enabled.
func (c *Core) InterruptReady() bool {
	return c.intPending && c.csrs[CSRMStatus]&MStatusMIE != 0
}

// takeInterruptIfPending redirects to the trap vector when an interrupt is
// pending and enabled. It returns true if a trap was taken.
func (c *Core) takeInterruptIfPending() bool {
	if !c.intPending || c.csrs[CSRMStatus]&MStatusMIE == 0 {
		return false
	}
	c.sys.Tracer().Call(c.fnTrap)
	c.intPending = false
	c.csrs[CSRMEPC] = c.pc
	c.csrs[CSRMCause] = CauseTimerInterrupt
	c.csrs[CSRMStatus] &^= MStatusMIE
	c.pc = c.csrs[CSRMTVec]
	return true
}

// Trap enters the machine trap vector with the given cause, saving epc.
// Environments use it for ECALL traps in FS mode.
func (c *Core) Trap(cause uint32, epc uint32) {
	c.sys.Tracer().Call(c.fnTrap)
	c.csrs[CSRMEPC] = epc
	c.csrs[CSRMCause] = cause
	c.csrs[CSRMStatus] &^= MStatusMIE
	c.pc = c.csrs[CSRMTVec]
}

// --- isa.Context implementation ---

// ReadReg implements isa.Context.
func (c *Core) ReadReg(r uint8) uint32 {
	if r == 0 {
		return 0
	}
	return c.regs[r]
}

// WriteReg implements isa.Context.
func (c *Core) WriteReg(r uint8, v uint32) {
	if r != 0 {
		c.regs[r] = v
	}
}

// ReadFReg implements isa.Context.
func (c *Core) ReadFReg(r uint8) float64 { return c.fregs[r] }

// WriteFReg implements isa.Context.
func (c *Core) WriteFReg(r uint8, v float64) { c.fregs[r] = v }

// PC implements isa.Context.
func (c *Core) PC() uint32 { return c.pc }

// ReadMem implements isa.Context: a functional read plus host data tracing.
func (c *Core) ReadMem(addr uint32, size int) (uint64, error) {
	c.sys.Tracer().Data(c.fmem.HostAddr(addr), uint32(size), false)
	return c.fmem.Read(addr, size)
}

// WriteMem implements isa.Context.
func (c *Core) WriteMem(addr uint32, size int, v uint64) error {
	c.sys.Tracer().Data(c.fmem.HostAddr(addr), uint32(size), true)
	return c.fmem.Write(addr, size, v)
}

// ReadCSR implements isa.Context.
func (c *Core) ReadCSR(num uint32) uint32 {
	switch num {
	case CSRCycle:
		return uint32(c.sys.Now() / c.clock)
	case CSRInstret:
		return uint32(c.numInsts.Count())
	}
	return c.csrs[num]
}

// WriteCSR implements isa.Context.
func (c *Core) WriteCSR(num uint32, v uint32) { c.csrs[num] = v }

// Ecall implements isa.Context.
func (c *Core) Ecall() {
	c.numEcalls.Inc()
	c.env.Ecall(c)
}

// Ebreak implements isa.Context.
func (c *Core) Ebreak() { c.env.Ebreak(c) }

// Wfi implements isa.Context.
func (c *Core) Wfi() {
	if c.intPending {
		return // interrupt already pending; WFI falls through
	}
	c.waiting = true
}

// Mret implements isa.Context.
func (c *Core) Mret() uint32 {
	c.csrs[CSRMStatus] |= MStatusMIE
	return c.csrs[CSRMEPC]
}

// fetchWord reads the instruction at pc functionally and traces the host
// access to the guest image.
func (c *Core) fetchWord(pc uint32) (isa.Word, error) {
	if pc%isa.InstBytes != 0 {
		return 0, fmt.Errorf("cpu: %s misaligned fetch at %#x", c.name, pc)
	}
	c.sys.Tracer().Data(c.fmem.HostAddr(pc), isa.InstBytes, false)
	v, err := c.fmem.Read(pc, isa.InstBytes)
	if err != nil {
		return 0, err
	}
	return isa.Word(v), nil
}

// execute runs one instruction architecturally, tracing the host-side
// execute function for its class, and updates commit statistics.
func (c *Core) execute(in isa.Inst) (isa.Outcome, error) {
	tr := c.sys.Tracer()
	tr.Call(c.fnExec[in.Class()])
	if len(c.libFns) > 0 && c.numInsts.Count()%c.libStride == 0 {
		tr.Call(c.libFns[c.libRotor%len(c.libFns)])
		c.libRotor++
	}
	pcBefore := c.pc
	out, err := isa.Execute(in, c)
	if err != nil {
		return out, fmt.Errorf("cpu: %s at pc %#x: %w", c.name, c.pc, err)
	}
	c.numInsts.Inc()
	if c.commitHook != nil {
		c.commitHook(pcBefore, in)
	}
	if c.cfg.ExecTrace != nil {
		fmt.Fprintf(c.cfg.ExecTrace, "%10d: %s: %#08x: %s\n",
			c.sys.Now(), c.name, pcBefore, in)
	}
	if in.IsControl() {
		c.numBranches.Inc()
	}
	if in.IsLoad() {
		c.numLoads.Inc()
	}
	if in.IsStore() {
		c.numStores.Inc()
	}
	tr.Call(c.fnAdvance)
	return out, nil
}

// ArchState is the serializable architectural state of one core, the
// per-CPU portion of a checkpoint.
type ArchState struct {
	Regs  [32]uint32        `json:"regs"`
	FRegs [32]float64       `json:"fregs"`
	PC    uint32            `json:"pc"`
	CSRs  map[uint32]uint32 `json:"csrs"`
}

// SaveArchState captures the core's architectural state. Only meaningful at
// an instruction boundary (a quiesced core).
func (c *Core) SaveArchState() ArchState {
	s := ArchState{Regs: c.regs, FRegs: c.fregs, PC: c.pc, CSRs: map[uint32]uint32{}}
	//lint:deterministic map-to-map copy commutes; JSON encoding sorts the keys
	for k, v := range c.csrs {
		s.CSRs[k] = v
	}
	return s
}

// LoadArchState overwrites the core's architectural state from a
// checkpoint.
func (c *Core) LoadArchState(s ArchState) {
	c.regs = s.Regs
	c.fregs = s.FRegs
	c.pc = s.PC
	c.csrs = make(map[uint32]uint32, len(s.CSRs))
	//lint:deterministic map-to-map copy commutes
	for k, v := range s.CSRs {
		c.csrs[k] = v
	}
}

// CPU is the interface every model satisfies.
type CPU interface {
	sim.SimObject
	// Core returns the shared architectural core.
	Core() *Core
	// Start begins execution at entry once the simulation runs.
	Start(entry uint32)
	// IPC returns committed instructions per cycle so far.
	IPC() float64
}
