package sysemu

import (
	"bytes"
	"fmt"
	"sort"

	"gem5prof/internal/guest"
	"gem5prof/internal/sim"
)

// Device is one memory-mapped peripheral.
type Device interface {
	sim.SimObject
	// Base returns the first address of the device window.
	Base() uint32
	// Len returns the window size in bytes.
	Len() uint32
	// ReadReg reads size bytes at offset off within the window.
	ReadReg(off uint32, size int) (uint64, error)
	// WriteReg writes size bytes at offset off within the window.
	WriteReg(off uint32, size int, v uint64) error
}

// MMIOMem wraps guest memory with a set of device windows, implementing
// cpu.FuncMem. Device windows take precedence over RAM.
type MMIOMem struct {
	mem      *guest.Memory
	devs     []Device
	hostBase uint64
}

// NewMMIOMem returns an MMIO-aware functional memory.
func NewMMIOMem(sys *sim.System, m *guest.Memory) *MMIOMem {
	return &MMIOMem{
		mem:      m,
		hostBase: sys.Tracer().AllocData("mmio.devregs", 1<<16),
	}
}

// Attach registers a device window. Overlapping windows panic.
func (w *MMIOMem) Attach(d Device) {
	for _, o := range w.devs {
		if d.Base() < o.Base()+o.Len() && o.Base() < d.Base()+d.Len() {
			panic(fmt.Sprintf("sysemu: device %s overlaps %s", d.Name(), o.Name()))
		}
	}
	w.devs = append(w.devs, d)
	sort.Slice(w.devs, func(i, j int) bool { return w.devs[i].Base() < w.devs[j].Base() })
}

func (w *MMIOMem) find(addr uint32) Device {
	for _, d := range w.devs {
		if addr >= d.Base() && addr < d.Base()+d.Len() {
			return d
		}
	}
	return nil
}

// Read implements cpu.FuncMem.
func (w *MMIOMem) Read(addr uint32, size int) (uint64, error) {
	if d := w.find(addr); d != nil {
		return d.ReadReg(addr-d.Base(), size)
	}
	return w.mem.Read(addr, size)
}

// Write implements cpu.FuncMem.
func (w *MMIOMem) Write(addr uint32, size int, v uint64) error {
	if d := w.find(addr); d != nil {
		return d.WriteReg(addr-d.Base(), size, v)
	}
	return w.mem.Write(addr, size, v)
}

// HostAddr implements cpu.FuncMem.
func (w *MMIOMem) HostAddr(addr uint32) uint64 {
	if d := w.find(addr); d != nil {
		return w.hostBase + uint64(addr-d.Base())
	}
	return w.mem.HostAddr(addr)
}

// Conventional device addresses of the g5 FS platform.
const (
	UARTBase     = 0x1000_0000
	TimerBase    = 0x1001_0000
	PoweroffBase = 0x1002_0000
)

// UART is a transmit-only serial port: a write to offset 0 emits one byte.
// Offset 4 reads as a always-ready status register.
type UART struct {
	name string
	base uint32
	out  bytes.Buffer

	bytesTx *sim.Counter
}

// NewUART builds a UART at base.
func NewUART(sys *sim.System, name string, base uint32) *UART {
	u := &UART{name: name, base: base}
	u.bytesTx = sys.Stats().Counter(name+".bytesTx", "bytes transmitted")
	sys.Register(u)
	return u
}

// Name implements sim.SimObject.
func (u *UART) Name() string { return u.name }

// Base implements Device.
func (u *UART) Base() uint32 { return u.base }

// Len implements Device.
func (u *UART) Len() uint32 { return 0x100 }

// Output returns everything transmitted so far.
func (u *UART) Output() string { return u.out.String() }

// ReadReg implements Device.
func (u *UART) ReadReg(off uint32, size int) (uint64, error) {
	switch off {
	case 4:
		return 1, nil // TX always ready
	default:
		return 0, nil
	}
}

// WriteReg implements Device.
func (u *UART) WriteReg(off uint32, size int, v uint64) error {
	if off == 0 {
		u.out.WriteByte(byte(v))
		u.bytesTx.Inc()
	}
	return nil
}

// InterruptSink receives device interrupts (implemented by cpu.Core).
type InterruptSink interface {
	RaiseInterrupt()
	ClearInterrupt()
}

// Timer is a cycle-granularity timer: mtime at offset 0 (read-only, in
// microseconds of guest time), mtimecmp at offset 8. Writing mtimecmp arms
// an interrupt at that time and clears any pending one.
type Timer struct {
	name string
	base uint32
	sys  *sim.System
	sink InterruptSink
	ev   *sim.Event
	cmp  uint64

	interrupts *sim.Counter
}

// TimerTick is the timer's time unit in simulation ticks (1 µs).
const TimerTick = sim.Microsecond

// NewTimer builds a timer at base that interrupts sink.
func NewTimer(sys *sim.System, name string, base uint32, sink InterruptSink) *Timer {
	t := &Timer{name: name, base: base, sys: sys, sink: sink}
	t.ev = sim.NewEvent(name+".fire", 0, func() {
		t.interrupts.Inc()
		t.sink.RaiseInterrupt()
	})
	t.interrupts = sys.Stats().Counter(name+".interrupts", "timer interrupts raised")
	sys.Register(t)
	return t
}

// Name implements sim.SimObject.
func (t *Timer) Name() string { return t.name }

// Base implements Device.
func (t *Timer) Base() uint32 { return t.base }

// Len implements Device.
func (t *Timer) Len() uint32 { return 0x100 }

// Interrupts returns how many timer interrupts have fired.
func (t *Timer) Interrupts() uint64 { return t.interrupts.Count() }

// ReadReg implements Device.
func (t *Timer) ReadReg(off uint32, size int) (uint64, error) {
	now := uint64(t.sys.Now() / TimerTick)
	switch off {
	case 0:
		return now & 0xffff_ffff, nil
	case 4:
		return now >> 32, nil
	case 8:
		return t.cmp & 0xffff_ffff, nil
	case 12:
		return t.cmp >> 32, nil
	}
	return 0, nil
}

// WriteReg implements Device.
func (t *Timer) WriteReg(off uint32, size int, v uint64) error {
	if off != 8 {
		return nil
	}
	t.cmp = v
	t.sink.ClearInterrupt()
	when := sim.Tick(v) * TimerTick
	if t.ev.Scheduled() {
		t.sys.Deschedule(t.ev)
	}
	if when <= t.sys.Now() {
		t.interrupts.Inc()
		t.sink.RaiseInterrupt()
		return nil
	}
	t.sys.Schedule(t.ev, when)
	return nil
}

// Poweroff terminates the simulation when written: the FS analogue of gem5's
// m5 exit pseudo-op.
type Poweroff struct {
	name string
	base uint32
	sys  *sim.System
}

// NewPoweroff builds the poweroff device at base.
func NewPoweroff(sys *sim.System, name string, base uint32) *Poweroff {
	p := &Poweroff{name: name, base: base, sys: sys}
	sys.Register(p)
	return p
}

// Name implements sim.SimObject.
func (p *Poweroff) Name() string { return p.name }

// Base implements Device.
func (p *Poweroff) Base() uint32 { return p.base }

// Len implements Device.
func (p *Poweroff) Len() uint32 { return 0x100 }

// ReadReg implements Device.
func (p *Poweroff) ReadReg(off uint32, size int) (uint64, error) { return 0, nil }

// WriteReg implements Device.
func (p *Poweroff) WriteReg(off uint32, size int, v uint64) error {
	p.sys.RequestExit("guest poweroff", int(v))
	return nil
}
