package mem

import "gem5prof/internal/sim"

// DRAMConfig sets the timing of the memory controller.
type DRAMConfig struct {
	Name string
	// Banks is the number of independently scheduled banks.
	Banks int
	// RowBytes is the size of one row buffer.
	RowBytes uint32
	// RowHitLatency is charged when the open row matches.
	RowHitLatency sim.Tick
	// RowMissLatency is charged on a row conflict (precharge + activate).
	RowMissLatency sim.Tick
	// TicksPerByte models the data-bus bandwidth.
	TicksPerByte sim.Tick
}

// DefaultDDR4 returns timings loosely modeled on DDR4-2933: ~15ns CAS on a
// row hit, ~45ns on a row conflict.
func DefaultDDR4(name string) DRAMConfig {
	return DRAMConfig{
		Name:           name,
		Banks:          16,
		RowBytes:       2048,
		RowHitLatency:  15 * sim.Nanosecond,
		RowMissLatency: 45 * sim.Nanosecond,
		TicksPerByte:   45, // ~22 GB/s per channel
	}
}

type dramBank struct {
	openRow   uint32
	rowValid  bool
	busyUntil sim.Tick
}

// DRAM terminates the memory hierarchy with a banked open-row controller.
type DRAM struct {
	sys   *sim.System
	cfg   DRAMConfig
	banks []dramBank

	fnAccess sim.FuncID

	reads      *sim.Counter
	writes     *sim.Counter
	bytesMoved *sim.Counter
	rowHits    *sim.Counter
	rowMisses  *sim.Counter
}

// NewDRAM builds a DRAM controller in sys.
func NewDRAM(sys *sim.System, cfg DRAMConfig) *DRAM {
	if cfg.Banks <= 0 || cfg.RowBytes == 0 {
		panic("mem: dram needs banks and a row size")
	}
	d := &DRAM{sys: sys, cfg: cfg, banks: make([]dramBank, cfg.Banks)}
	d.fnAccess = sys.Tracer().RegisterFunc(cfg.Name+"::recvAtomic", 1600, sim.FuncVirtual)
	st := sys.Stats()
	d.reads = st.Counter(cfg.Name+".reads", "read transactions")
	d.writes = st.Counter(cfg.Name+".writes", "write transactions")
	d.bytesMoved = st.Counter(cfg.Name+".bytes", "bytes transferred")
	d.rowHits = st.Counter(cfg.Name+".rowHits", "row-buffer hits")
	d.rowMisses = st.Counter(cfg.Name+".rowMisses", "row-buffer conflicts")
	sys.Register(d)
	return d
}

// Name implements sim.SimObject.
func (d *DRAM) Name() string { return d.cfg.Name }

// Reads returns the read transaction count.
func (d *DRAM) Reads() uint64 { return d.reads.Count() }

// Writes returns the write transaction count.
func (d *DRAM) Writes() uint64 { return d.writes.Count() }

// BytesMoved returns the total data moved through the controller.
func (d *DRAM) BytesMoved() uint64 { return d.bytesMoved.Count() }

// RowHitRate returns rowHits / (rowHits+rowMisses).
func (d *DRAM) RowHitRate() float64 {
	total := d.rowHits.Count() + d.rowMisses.Count()
	if total == 0 {
		return 0
	}
	return float64(d.rowHits.Count()) / float64(total)
}

// access updates bank state and returns the device latency (excluding
// queueing, which only timing mode models).
func (d *DRAM) access(acc Access) sim.Tick {
	d.sys.Tracer().Call(d.fnAccess)
	if acc.Write {
		d.writes.Inc()
	} else {
		d.reads.Inc()
	}
	d.bytesMoved.Addn(uint64(acc.Size))

	row := acc.Addr / d.cfg.RowBytes
	bank := &d.banks[int(row)%len(d.banks)]
	lat := d.cfg.RowMissLatency
	if bank.rowValid && bank.openRow == row {
		d.rowHits.Inc()
		lat = d.cfg.RowHitLatency
	} else {
		d.rowMisses.Inc()
		bank.openRow = row
		bank.rowValid = true
	}
	return lat + sim.Tick(acc.Size)*d.cfg.TicksPerByte
}

// AtomicLatency implements Port.
func (d *DRAM) AtomicLatency(acc Access) sim.Tick {
	return d.access(acc)
}

// SendTiming implements Port.
func (d *DRAM) SendTiming(acc Access, done func()) {
	row := acc.Addr / d.cfg.RowBytes
	bank := &d.banks[int(row)%len(d.banks)]
	now := d.sys.Now()
	start := now
	if bank.busyUntil > start {
		start = bank.busyUntil
	}
	lat := d.access(acc)
	bank.busyUntil = start + lat
	total := (start - now) + lat
	if done != nil {
		d.sys.ScheduleIn(sim.NewEvent(d.cfg.Name+".resp", d.fnAccess, done), total)
	}
}
