package cpu

import (
	"gem5prof/internal/isa"
	"gem5prof/internal/mem"
	"gem5prof/internal/sim"
)

// TimingCPU is the TimingSimpleCPU model: CPI = 1 plus real memory timing.
// Every instruction fetch and data access travels through the timing memory
// system; the CPU blocks on each access like gem5's TimingSimpleCPU.
type TimingCPU struct {
	core *Core

	fetchEv *sim.Event
	busy    bool

	numCycles  *sim.Counter
	fetchStall *sim.Counter
	dataStall  *sim.Counter

	lastActive sim.Tick
}

// NewTimingCPU builds a TimingSimpleCPU.
func NewTimingCPU(sys *sim.System, cfg Config) *TimingCPU {
	c := &TimingCPU{core: newCore(sys, "TimingSimpleCPU", cfg)}
	st := sys.Stats()
	c.numCycles = st.Counter(cfg.Name+".numCycles", "active guest cycles")
	c.fetchStall = st.Counter(cfg.Name+".icacheStallTicks", "ticks stalled on instruction fetch")
	c.dataStall = st.Counter(cfg.Name+".dcacheStallTicks", "ticks stalled on data access")
	c.fetchEv = sim.NewEventPrio(cfg.Name+".fetch", c.core.fnFetch, sim.PrioCPUTick, c.startFetch)
	c.core.wakeup = func() {
		// The fetch may still be queued: a core parked at build time keeps
		// its Start event until it first fires, and a spawn can unpark it
		// within the spawner's same-tick batch.
		if !c.fetchEv.Scheduled() {
			sys.ScheduleIn(c.fetchEv, c.core.clock)
		}
	}
	sys.Register(c)
	return c
}

// Name implements sim.SimObject.
func (c *TimingCPU) Name() string { return c.core.name }

// Core implements CPU.
func (c *TimingCPU) Core() *Core { return c.core }

// IPC implements CPU: instructions per elapsed cycle including stalls.
func (c *TimingCPU) IPC() float64 {
	elapsed := c.core.sys.Now() / c.core.clock
	if elapsed == 0 {
		return 0
	}
	return float64(c.core.numInsts.Count()) / float64(elapsed)
}

// Start implements CPU.
func (c *TimingCPU) Start(entry uint32) {
	c.core.pc = entry
	c.core.sys.Schedule(c.fetchEv, c.core.sys.Now())
}

// startFetch begins one instruction: interrupt check, then a timing fetch.
func (c *TimingCPU) startFetch() {
	core := c.core
	if core.halted {
		return
	}
	core.takeInterruptIfPending()
	if core.waiting {
		return
	}
	pc := core.pc
	core.sys.Tracer().Call(core.fnFetch)
	sent := core.sys.Now()
	core.cfg.IPort.SendTiming(mem.Access{Addr: pc, Size: isa.InstBytes, Inst: true}, func() {
		c.fetchStall.Addn(uint64(core.sys.Now() - sent))
		c.completeFetch(pc)
	})
}

// completeFetch decodes and executes after the icache responds.
func (c *TimingCPU) completeFetch(pc uint32) {
	core := c.core
	if core.halted {
		return
	}
	w, err := core.fetchWord(pc)
	if err != nil {
		core.sys.RequestExit(err.Error(), 255)
	}
	core.sys.Tracer().Call(core.fnDecode)
	in := isa.Decode(w)
	out, err := core.execute(in)
	if err != nil {
		core.sys.RequestExit(err.Error(), 255)
	}
	c.numCycles.Inc()
	if core.pc == pc {
		core.pc = out.NextPC(pc)
	}
	if out.HasMem {
		// The architectural access already happened in execute; model the
		// timing by blocking until the data port responds.
		sent := core.sys.Now()
		core.cfg.DPort.SendTiming(mem.Access{
			Addr: out.MemAddr, Size: uint8(in.MemSize()), Write: in.IsStore(),
		}, func() {
			c.dataStall.Addn(uint64(core.sys.Now() - sent))
			c.instDone()
		})
		return
	}
	c.instDone()
}

// instDone schedules the next fetch one cycle later.
func (c *TimingCPU) instDone() {
	core := c.core
	if core.halted || core.waiting {
		return
	}
	core.sys.ScheduleIn(c.fetchEv, core.clock)
}
