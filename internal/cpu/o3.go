package cpu

import (
	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// O3Config sets the geometry of the out-of-order core. Defaults follow the
// paper's Table I (8-wide, 192-entry ROB, 64-entry IQ, 32/32 LQ/SQ,
// tournament predictor with a 4096-entry BTB).
type O3Config struct {
	Width             int // fetch/rename/issue/commit width
	ROBEntries        int
	IQEntries         int
	LQEntries         int
	SQEntries         int
	FetchBytes        uint32
	MispredictPenalty int
	BP                TournamentConfig
}

// DefaultO3Config returns the Table I configuration.
func DefaultO3Config() O3Config {
	return O3Config{
		Width:             8,
		ROBEntries:        192,
		IQEntries:         64,
		LQEntries:         32,
		SQEntries:         32,
		FetchBytes:        64,
		MispredictPenalty: 10,
		BP:                DefaultTournamentConfig(),
	}
}

type robEntry struct {
	seq      uint64
	pc       uint32
	in       isa.Inst
	deps     [3]uint64 // producer sequence numbers (0 = none)
	numDeps  int
	issued   bool
	complete bool
	doneAt   sim.Tick
	memAddr  uint32
	hasMem   bool
	mispred  bool
}

// O3CPU is the out-of-order model. Instructions execute architecturally in
// program order at dispatch (the one-pass execution-driven style documented
// in DESIGN.md); an out-of-order timing engine with a ROB, issue queue,
// load/store queues, and a tournament predictor then determines when cycles
// elapse. Wrong-path work appears as front-end squash bubbles.
type O3CPU struct {
	core *Core
	ocfg O3Config
	bp   *TournamentBP

	tick *sim.Event

	// Front end.
	fetchPC    uint32
	fetchEpoch uint64
	fetchBusy  bool
	buffer     []minorInst
	stallUntil sim.Tick
	// resolveSeq, when nonzero, stalls fetch until that entry completes.
	resolveSeq uint64

	// Back end.
	rob      []robEntry
	headSeq  uint64 // oldest in-flight sequence number
	nextSeq  uint64
	inROB    int
	unissued int
	lqUsed   int
	sqUsed   int
	renameTo [isa.NumArchRegs]uint64

	// Host-model stage functions.
	fnRename sim.FuncID
	fnIEW    sim.FuncID
	fnCommit sim.FuncID
	fnLSQ    sim.FuncID
	fnROB    sim.FuncID

	numCycles    *sim.Counter
	robFullStall *sim.Counter
	iqFullStall  *sim.Counter
	lsqFullStall *sim.Counter
	squashes     *sim.Counter
}

// NewO3CPU builds an out-of-order core.
func NewO3CPU(sys *sim.System, cfg Config, ocfg O3Config) *O3CPU {
	if ocfg.Width <= 0 || ocfg.ROBEntries <= 0 || ocfg.IQEntries <= 0 ||
		ocfg.LQEntries <= 0 || ocfg.SQEntries <= 0 {
		panic("cpu: bad O3 config")
	}
	c := &O3CPU{
		core: newCore(sys, "O3CPU", cfg),
		ocfg: ocfg,
		bp:   NewTournamentBP(sys.Stats(), cfg.Name, ocfg.BP),
		rob:  make([]robEntry, ocfg.ROBEntries),
	}
	c.nextSeq = 1
	c.headSeq = 1
	tr := sys.Tracer()
	c.fnRename = tr.RegisterFunc("O3CPU::Rename::renameInsts", 6200, sim.FuncVirtual|sim.FuncPoly)
	c.fnIEW = tr.RegisterFunc("O3CPU::IEW::executeInsts", 7400, sim.FuncVirtual|sim.FuncPoly)
	c.fnCommit = tr.RegisterFunc("O3CPU::Commit::commitInsts", 5800, sim.FuncVirtual|sim.FuncPoly)
	c.fnLSQ = tr.RegisterFunc("O3CPU::LSQUnit::executeLoad", 4600, sim.FuncVirtual|sim.FuncPoly)
	c.fnROB = tr.RegisterFunc("O3CPU::ROB::insertInst", 2800, sim.FuncVirtual|sim.FuncHot)
	st := sys.Stats()
	c.numCycles = st.Counter(cfg.Name+".numCycles", "pipeline cycles evaluated")
	c.robFullStall = st.Counter(cfg.Name+".robFullStalls", "dispatch stalls: ROB full")
	c.iqFullStall = st.Counter(cfg.Name+".iqFullStalls", "dispatch stalls: IQ full")
	c.lsqFullStall = st.Counter(cfg.Name+".lsqFullStalls", "dispatch stalls: LQ/SQ full")
	c.squashes = st.Counter(cfg.Name+".squashes", "front-end squashes")
	c.tick = sim.NewEventPrio(cfg.Name+".tick", c.fnIEW, sim.PrioCPUTick, c.evaluate)
	c.core.wakeup = func() { c.schedule() }
	c.core.redirect = func(pc uint32) { c.squashFrontEnd(pc, 0) }
	sys.Register(c)
	return c
}

// Name implements sim.SimObject.
func (c *O3CPU) Name() string { return c.core.name }

// Core implements CPU.
func (c *O3CPU) Core() *Core { return c.core }

// BP returns the branch predictor.
func (c *O3CPU) BP() *TournamentBP { return c.bp }

// IPC implements CPU.
func (c *O3CPU) IPC() float64 {
	elapsed := c.core.sys.Now() / c.core.clock
	if elapsed == 0 {
		return 0
	}
	return float64(c.core.numInsts.Count()) / float64(elapsed)
}

// Start implements CPU.
func (c *O3CPU) Start(entry uint32) {
	c.core.pc = entry
	c.fetchPC = entry
	c.schedule()
}

func (c *O3CPU) schedule() {
	if c.core.halted || c.tick.Scheduled() {
		return
	}
	c.core.sys.ScheduleIn(c.tick, c.core.clock)
}

func (c *O3CPU) entry(seq uint64) *robEntry {
	return &c.rob[seq%uint64(len(c.rob))]
}

// live reports whether seq names an in-flight ROB entry.
func (c *O3CPU) live(seq uint64) bool {
	return seq >= c.headSeq && seq < c.nextSeq && c.entry(seq).seq == seq
}

// squashFrontEnd discards fetched-but-not-dispatched instructions and
// redirects fetch to pc once the resolving instruction completes.
func (c *O3CPU) squashFrontEnd(pc uint32, resolveSeq uint64) {
	c.squashes.Inc()
	c.fetchEpoch++
	c.buffer = c.buffer[:0]
	c.fetchPC = pc
	c.resolveSeq = resolveSeq
	if resolveSeq == 0 {
		c.stallUntil = c.core.sys.Now() + sim.Tick(c.ocfg.MispredictPenalty)*c.core.clock
	}
}

// evaluate advances commit, issue, dispatch, and fetch by one cycle.
func (c *O3CPU) evaluate() {
	core := c.core
	if core.halted {
		return
	}
	c.numCycles.Inc()
	now := core.sys.Now()

	c.commit(now)
	c.issue(now)
	if core.waiting {
		return // WFI drain; wakeup() re-arms
	}
	if !c.dispatch(now) {
		return // fault terminated the run
	}
	c.tryFetch()

	switch {
	case c.inROB > 0 || len(c.buffer) > 0:
		c.schedule()
	case !c.fetchBusy && c.resolveSeq == 0 && now < c.stallUntil:
		// Idle only because of a redirect penalty: resume exactly then.
		c.scheduleAt(c.stallUntil)
	}
	// Otherwise fetch response or memory callbacks re-arm the pipeline.
}

// scheduleAt arms the pipeline event at an absolute tick.
func (c *O3CPU) scheduleAt(when sim.Tick) {
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

// commit retires completed instructions in order.
func (c *O3CPU) commit(now sim.Tick) {
	core := c.core
	for n := 0; n < c.ocfg.Width && c.inROB > 0; n++ {
		e := c.entry(c.headSeq)
		if !e.complete || e.doneAt > now {
			return
		}
		core.sys.Tracer().Call(c.fnCommit)
		if e.in.IsStore() {
			// The store leaves the SQ when the cache accepts it.
			core.sys.Tracer().Call(c.fnLSQ)
			acc := mem.Access{Addr: e.memAddr, Size: uint8(e.in.MemSize()), Write: true}
			core.cfg.DPort.SendTiming(acc, func() {
				c.sqUsed--
				c.schedule()
			})
		}
		if e.in.IsLoad() {
			c.lqUsed--
		}
		c.headSeq++
		c.inROB--
	}
}

// issue wakes up ready instructions out of order.
func (c *O3CPU) issue(now sim.Tick) {
	core := c.core
	issued := 0
	for seq := c.headSeq; seq < c.nextSeq && issued < c.ocfg.Width; seq++ {
		e := c.entry(seq)
		if e.issued {
			continue
		}
		if !c.depsReady(e, now) {
			continue
		}
		core.sys.Tracer().Call(c.fnIEW)
		e.issued = true
		c.unissued--
		issued++
		if e.in.IsLoad() {
			core.sys.Tracer().Call(c.fnLSQ)
			seqCopy := seq
			acc := mem.Access{Addr: e.memAddr, Size: uint8(e.in.MemSize())}
			core.cfg.DPort.SendTiming(acc, func() {
				if c.live(seqCopy) {
					le := c.entry(seqCopy)
					le.complete = true
					le.doneAt = core.sys.Now()
					c.resolved(le)
				}
				c.schedule()
			})
			continue
		}
		e.complete = true
		e.doneAt = now + sim.Tick(fuLatency(e.in.Class()))*core.clock
		c.resolved(e)
	}
}

// resolved releases a mispredict fetch stall once its branch completes.
func (c *O3CPU) resolved(e *robEntry) {
	if c.resolveSeq != 0 && e.seq == c.resolveSeq {
		c.resolveSeq = 0
		c.stallUntil = e.doneAt + sim.Tick(c.ocfg.MispredictPenalty)*c.core.clock
	}
}

func (c *O3CPU) depsReady(e *robEntry, now sim.Tick) bool {
	for i := 0; i < e.numDeps; i++ {
		dep := e.deps[i]
		if !c.live(dep) {
			continue // producer already retired
		}
		p := c.entry(dep)
		if !p.complete || p.doneAt > now {
			return false
		}
	}
	return true
}

// dispatch renames and architecturally executes instructions in program
// order. Returns false if a fault ended the simulation.
func (c *O3CPU) dispatch(now sim.Tick) bool {
	core := c.core
	for n := 0; n < c.ocfg.Width && len(c.buffer) > 0; n++ {
		if core.waiting {
			return true
		}
		if c.inROB >= c.ocfg.ROBEntries {
			c.robFullStall.Inc()
			return true
		}
		if c.unissued >= c.ocfg.IQEntries {
			c.iqFullStall.Inc()
			return true
		}
		// Interrupts are taken at dispatch once the machine drains to a
		// precise PC (matching gem5's drain-then-trap); while one is
		// pending, dispatch stalls so the ROB can empty.
		if core.InterruptReady() {
			if c.inROB > 0 {
				return true
			}
			if core.takeInterruptIfPending() {
				c.squashFrontEnd(core.pc, 0)
				return true
			}
		}
		mi := c.buffer[0]
		if mi.pc != core.pc {
			c.buffer = c.buffer[1:]
			continue
		}
		if mi.in.IsLoad() && c.lqUsed >= c.ocfg.LQEntries ||
			mi.in.IsStore() && c.sqUsed >= c.ocfg.SQEntries {
			c.lsqFullStall.Inc()
			return true
		}
		core.sys.Tracer().Call(c.fnRename)
		c.buffer = c.buffer[1:]

		pc := mi.pc
		out, err := core.execute(mi.in)
		if err != nil {
			core.sys.RequestExit(err.Error(), 255)
			return false
		}
		redirected := core.pc != pc
		if !redirected {
			core.pc = out.NextPC(pc)
		}

		// Allocate the ROB entry.
		core.sys.Tracer().Call(c.fnROB)
		seq := c.nextSeq
		c.nextSeq++
		c.inROB++
		c.unissued++
		e := c.entry(seq)
		*e = robEntry{seq: seq, pc: pc, in: mi.in}
		var srcs [3]isa.RegID
		for _, r := range mi.in.Srcs(srcs[:0]) {
			if p := c.renameTo[r]; p != 0 && c.live(p) {
				e.deps[e.numDeps] = p
				e.numDeps++
			}
		}
		if d := mi.in.Dest(); d != isa.InvalidReg {
			c.renameTo[d] = seq
		}
		if out.HasMem {
			e.hasMem = true
			e.memAddr = out.MemAddr
			if mi.in.IsLoad() {
				c.lqUsed++
			} else {
				c.sqUsed++
			}
		}

		// Control resolution: squash the front end on any redirect the
		// fetch-time prediction did not anticipate.
		realNext := core.pc
		if mi.in.IsControl() {
			c.bp.Update(pc, mi.in, out.ControlTaken, out.ControlTarget)
		}
		if redirected {
			// Trap/environment redirect: refetch immediately after resolve.
			e.mispred = true
			c.squashFrontEnd(realNext, seq)
			return true
		}
		if mi.predNext != realNext {
			c.bp.RecordMispredict()
			e.mispred = true
			c.squashFrontEnd(realNext, seq)
			return true
		}
	}
	return true
}

// tryFetch mirrors the Minor front end: fetch one block, pre-decode, follow
// predictions.
func (c *O3CPU) tryFetch() {
	core := c.core
	if c.fetchBusy || core.halted || len(c.buffer) >= 4*c.ocfg.Width {
		return
	}
	now := core.sys.Now()
	if c.resolveSeq != 0 || now < c.stallUntil {
		return // waiting on a branch resolution or redirect penalty
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
			// Squashed while in flight: re-arm so the redirected stream is
			// fetched instead of the pipeline going idle.
			c.schedule()
			return
		}
		c.fillBuffer(start)
		c.schedule()
	})
}

// fillBuffer decodes one fetched block into the dispatch buffer.
func (c *O3CPU) fillBuffer(start uint32) {
	core := c.core
	blockEnd := (start &^ (c.ocfg.FetchBytes - 1)) + c.ocfg.FetchBytes
	pc := start
	max := 4 * c.ocfg.Width
	for pc < blockEnd && len(c.buffer) < max {
		w, err := core.fetchWord(pc)
		if err != nil {
			if pc == start && len(c.buffer) == 0 {
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
			break
		}
		if in.IsSystem() {
			break
		}
	}
	c.fetchPC = pc
}
