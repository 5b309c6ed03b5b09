package cpu

import (
	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// MinorConfig sets the geometry of the in-order pipeline.
type MinorConfig struct {
	// FetchBytes is the width of one instruction-cache fetch.
	FetchBytes uint32
	// IssueWidth is the maximum instructions issued per cycle.
	IssueWidth int
	// BufferDepth bounds the decoded-instruction queue.
	BufferDepth int
	// MispredictPenalty is the redirect bubble in cycles.
	MispredictPenalty int
	// BP sizes the branch predictor.
	BP TournamentConfig
}

// DefaultMinorConfig mirrors gem5's MinorCPU defaults: 2-wide with a
// 4-stage front end.
func DefaultMinorConfig() MinorConfig {
	return MinorConfig{
		FetchBytes:        64,
		IssueWidth:        2,
		BufferDepth:       16,
		MispredictPenalty: 4,
		BP:                DefaultTournamentConfig(),
	}
}

type minorInst struct {
	pc       uint32
	in       isa.Inst
	predNext uint32
}

// MinorCPU is the in-order pipelined model: strict in-order issue, a
// scoreboard for register hazards, branch prediction with redirect
// penalties, and timing memory accesses.
type MinorCPU struct {
	core *Core
	mcfg MinorConfig
	bp   *TournamentBP

	tick *sim.Event

	fetchPC       uint32
	fetchEpoch    uint64
	fetchBusy     bool
	buffer        []minorInst
	regReadyAt    [isa.NumArchRegs]sim.Tick
	stallUntil    sim.Tick
	outstandingLd int

	// Host-model stage functions beyond the common core set.
	fnFetch2 sim.FuncID
	fnIssue  sim.FuncID
	fnLSQ    sim.FuncID

	numCycles   *sim.Counter
	fetchStalls *sim.Counter
	issueStalls *sim.Counter
	squashes    *sim.Counter
}

// NewMinorCPU builds a Minor in-order CPU.
func NewMinorCPU(sys *sim.System, cfg Config, mcfg MinorConfig) *MinorCPU {
	if mcfg.IssueWidth <= 0 || mcfg.BufferDepth <= 0 || mcfg.FetchBytes == 0 {
		panic("cpu: bad minor config")
	}
	c := &MinorCPU{
		core: newCore(sys, "MinorCPU", cfg),
		mcfg: mcfg,
		bp:   NewTournamentBP(sys.Stats(), cfg.Name, mcfg.BP),
	}
	tr := sys.Tracer()
	c.fnFetch2 = tr.RegisterFunc("MinorCPU::Fetch2::evaluate", 4200, sim.FuncVirtual|sim.FuncPoly)
	c.fnIssue = tr.RegisterFunc("MinorCPU::Execute::issue", 5100, sim.FuncVirtual|sim.FuncPoly)
	c.fnLSQ = tr.RegisterFunc("MinorCPU::LSQ::pushRequest", 3600, sim.FuncVirtual|sim.FuncPoly)
	st := sys.Stats()
	c.numCycles = st.Counter(cfg.Name+".numCycles", "pipeline cycles evaluated")
	c.fetchStalls = st.Counter(cfg.Name+".fetchStallCycles", "cycles with an empty decode buffer")
	c.issueStalls = st.Counter(cfg.Name+".issueStallCycles", "cycles blocked on hazards")
	c.squashes = st.Counter(cfg.Name+".squashes", "pipeline squashes (mispredicts + traps)")
	c.tick = sim.NewEventPrio(cfg.Name+".tick", c.fnIssue, sim.PrioCPUTick, c.evaluate)
	c.core.wakeup = func() { c.schedule() }
	c.core.redirect = func(pc uint32) { c.squash(pc) }
	sys.Register(c)
	return c
}

// Name implements sim.SimObject.
func (c *MinorCPU) Name() string { return c.core.name }

// Core implements CPU.
func (c *MinorCPU) Core() *Core { return c.core }

// BP returns the branch predictor for inspection.
func (c *MinorCPU) BP() *TournamentBP { return c.bp }

// IPC implements CPU.
func (c *MinorCPU) IPC() float64 {
	elapsed := c.core.sys.Now() / c.core.clock
	if elapsed == 0 {
		return 0
	}
	return float64(c.core.numInsts.Count()) / float64(elapsed)
}

// Start implements CPU.
func (c *MinorCPU) Start(entry uint32) {
	c.core.pc = entry
	c.fetchPC = entry
	c.schedule()
}

// schedule arms the pipeline event for the next cycle if it is not pending.
func (c *MinorCPU) schedule() {
	if c.core.halted || c.tick.Scheduled() {
		return
	}
	c.core.sys.ScheduleIn(c.tick, c.core.clock)
}

// scheduleAt arms the pipeline event at an absolute tick.
func (c *MinorCPU) scheduleAt(when sim.Tick) {
	if c.core.halted {
		return
	}
	if c.tick.Scheduled() {
		if c.tick.When() <= when {
			return
		}
		c.core.sys.Deschedule(c.tick)
	}
	c.core.sys.Reschedule(c.tick, when)
}

// squash flushes all fetched state and redirects fetch to pc.
func (c *MinorCPU) squash(pc uint32) {
	c.squashes.Inc()
	c.fetchEpoch++
	c.buffer = c.buffer[:0]
	c.fetchPC = pc
	c.stallUntil = c.core.sys.Now() + sim.Tick(c.mcfg.MispredictPenalty)*c.core.clock
}

// evaluate advances the whole pipeline by one cycle.
func (c *MinorCPU) evaluate() {
	core := c.core
	if core.halted {
		return
	}
	c.numCycles.Inc()
	now := core.sys.Now()

	if core.waiting {
		return // WFI: wakeup() re-arms
	}
	if core.takeInterruptIfPending() {
		c.squash(core.pc)
	}

	// Execute stage: in-order issue of up to IssueWidth ready instructions.
	issued := 0
	blockedUntil := sim.Tick(0)
	for issued < c.mcfg.IssueWidth && now >= c.stallUntil && len(c.buffer) > 0 {
		mi := c.buffer[0]
		if mi.pc != core.pc {
			// Stale wrong-path instruction (post-redirect); drop it.
			c.buffer = c.buffer[1:]
			continue
		}
		if ready := c.srcsReadyAt(mi.in); ready > now {
			c.issueStalls.Inc()
			blockedUntil = ready
			break
		}
		core.sys.Tracer().Call(c.fnIssue)
		c.buffer = c.buffer[1:]
		if !c.issueOne(mi, now) {
			return // fault ended the simulation
		}
		issued++
		if core.halted || core.waiting {
			return
		}
		now = core.sys.Now()
	}
	if len(c.buffer) == 0 && !c.fetchBusy {
		c.fetchStalls.Inc()
	}

	// Fetch stage: keep the decode buffer full.
	c.tryFetch()

	// Re-arm policy: avoid spinning while blocked on memory responses (the
	// response callbacks re-arm the pipeline).
	switch {
	case len(c.buffer) > 0 && blockedUntil == sim.MaxTick:
		// Head blocked on an outstanding load; its callback schedules.
	case len(c.buffer) > 0 && blockedUntil > now:
		c.scheduleAt(blockedUntil)
	case len(c.buffer) > 0:
		c.schedule()
	case c.fetchBusy:
		// Fetch response callback schedules.
	default:
		if !c.tick.Scheduled() && c.fetchPC != 0 {
			c.schedule()
		}
	}
}

// srcsReadyAt returns the tick at which every source register is available.
func (c *MinorCPU) srcsReadyAt(in isa.Inst) sim.Tick {
	var buf [3]isa.RegID
	ready := sim.Tick(0)
	for _, r := range in.Srcs(buf[:0]) {
		if c.regReadyAt[r] > ready {
			ready = c.regReadyAt[r]
		}
	}
	return ready
}

// fuLatency returns the functional-unit latency in cycles for a class.
func fuLatency(cl isa.Class) int {
	switch cl {
	case isa.ClassIntMult:
		return 3
	case isa.ClassIntDiv:
		return 12
	case isa.ClassFloatAdd:
		return 3
	case isa.ClassFloatMult:
		return 4
	case isa.ClassFloatDiv:
		return 12
	case isa.ClassFloatSqrt:
		return 16
	case isa.ClassFloatCvt:
		return 2
	default:
		return 1
	}
}

// issueOne architecturally executes one instruction and models its latency.
// It returns false if the simulation was terminated by a fault.
func (c *MinorCPU) issueOne(mi minorInst, now sim.Tick) bool {
	core := c.core
	in := mi.in
	pc := mi.pc
	out, err := core.execute(in)
	if err != nil {
		core.sys.RequestExit(err.Error(), 255)
		return false
	}
	if core.pc == pc {
		core.pc = out.NextPC(pc)
	} else {
		// A trap or environment call redirected the stream.
		c.squash(core.pc)
	}

	// Register result latency.
	if d := in.Dest(); d != isa.InvalidReg {
		c.regReadyAt[d] = now + sim.Tick(fuLatency(in.Class()))*core.clock
	}

	// Memory timing.
	if out.HasMem {
		core.sys.Tracer().Call(c.fnLSQ)
		acc := mem.Access{Addr: out.MemAddr, Size: uint8(in.MemSize()), Write: in.IsStore()}
		if in.IsLoad() {
			d := in.Dest()
			c.outstandingLd++
			if d != isa.InvalidReg {
				c.regReadyAt[d] = sim.MaxTick // unknown until response
			}
			core.cfg.DPort.SendTiming(acc, func() {
				c.outstandingLd--
				if d != isa.InvalidReg {
					c.regReadyAt[d] = core.sys.Now()
				}
				c.schedule()
			})
		} else {
			core.cfg.DPort.SendTiming(acc, nil) // stores drain via the cache
		}
	}

	// Control flow: resolve against the fetch-time prediction.
	if in.IsControl() {
		realNext := out.NextPC(pc)
		c.bp.Update(pc, in, out.ControlTaken, out.ControlTarget)
		if mi.predNext != realNext {
			c.bp.RecordMispredict()
			c.squash(realNext)
		}
	}
	return true
}

// tryFetch issues an instruction-cache fetch when the buffer has space.
func (c *MinorCPU) tryFetch() {
	core := c.core
	if c.fetchBusy || core.halted || len(c.buffer) >= c.mcfg.BufferDepth {
		return
	}
	if core.sys.Now() < c.stallUntil {
		c.scheduleAt(c.stallUntil)
		return
	}
	epoch := c.fetchEpoch
	start := c.fetchPC
	c.fetchBusy = true
	core.sys.Tracer().Call(core.fnFetch)
	core.cfg.IPort.SendTiming(mem.Access{Addr: start, Size: isa.InstBytes, Inst: true}, func() {
		c.fetchBusy = false
		if core.halted {
			return
		}
		if epoch != c.fetchEpoch {
			// Squashed while in flight: the redirected stream still needs
			// fetching, so re-arm the pipeline rather than going idle.
			c.schedule()
			return
		}
		c.fillBuffer(start)
		c.schedule()
	})
}

// fillBuffer decodes straight-line instructions from one fetched block,
// following predicted-taken control flow.
func (c *MinorCPU) fillBuffer(start uint32) {
	core := c.core
	blockEnd := (start &^ (c.mcfg.FetchBytes - 1)) + c.mcfg.FetchBytes
	pc := start
	for pc < blockEnd && len(c.buffer) < c.mcfg.BufferDepth {
		core.sys.Tracer().Call(c.fnFetch2)
		w, err := core.fetchWord(pc)
		if err != nil {
			if pc == start && len(c.buffer) == 0 {
				// Fetch fault with an empty pipeline: inject an illegal
				// instruction so execute reports the fault instead of the
				// front end spinning forever.
				c.buffer = append(c.buffer, minorInst{pc: pc, in: isa.Inst{Op: isa.OpInvalid}, predNext: pc})
			}
			break
		}
		core.sys.Tracer().Call(core.fnDecode)
		in := isa.Decode(w)
		next := pc + isa.InstBytes
		if in.IsControl() {
			pred := c.bp.Predict(pc, in)
			if pred.Taken {
				next = pred.Target
			}
		}
		c.buffer = append(c.buffer, minorInst{pc: pc, in: in, predNext: next})
		pc = next
		if next < start || next >= blockEnd {
			break // control flow left the fetched block
		}
		if in.IsSystem() {
			break // serialize after system instructions
		}
	}
	c.fetchPC = pc
}
