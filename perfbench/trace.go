package main

import (
	"time"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/sim"
	"gem5prof/internal/uarch"
)

// countingTracer is the guest leg's sim.Tracer: it hands out IDs and
// addresses like sim.NopTracer and counts the annotations the guest emits.
type countingTracer struct {
	*sim.NopTracer
	calls, data uint64
}

func (t *countingTracer) Call(sim.FuncID)           { t.calls++ }
func (t *countingTracer) Data(uint64, uint32, bool) { t.data++ }

// countingSink is the hostmodel leg's hostmodel.Sink: it counts records
// and does nothing else, so the leg costs the guest plus trace synthesis.
type countingSink struct{ fetch, branch, data uint64 }

func (s *countingSink) FetchBlock(uint64, uint32, uint32) { s.fetch++ }
func (s *countingSink) Branch(uint64, uint64, bool, bool) { s.branch++ }
func (s *countingSink) Data(uint64, uint32, bool)         { s.data++ }

// record is one buffered hostmodel.Sink call.
type record struct {
	kind         byte // 'f' FetchBlock, 'b' Branch, 'd' Data
	a, b         uint64
	n, uops      uint32
	flag1, flag2 bool
}

// replayBatch is how many records replaySink buffers before replaying them.
// Large enough that the two clock reads per batch are noise against the
// replay, small enough to stay cache-resident.
const replayBatch = 4096

// lineShift is log2 of the 64 B line the repeat fractions compare.
const lineShift = 6

// replaySink is the uarch leg's hostmodel.Sink: it buffers records in
// order and replays them into the machine in fixed-size batches, so the
// clock brackets only uarch work. Records arriving before the address map
// is final stay buffered until armed.
type replaySink struct {
	m     *uarch.Machine
	buf   []record
	armed bool
	self  time.Duration

	fetch, branch, data         uint64
	fetchRepeat, dataRepeat     uint64
	lastFetchLine, lastDataLine uint64
}

func newReplaySink(m *uarch.Machine) *replaySink {
	return &replaySink{m: m, buf: make([]record, 0, replayBatch), lastFetchLine: ^uint64(0), lastDataLine: ^uint64(0)}
}

func (s *replaySink) put(r record) {
	s.buf = append(s.buf, r)
	if s.armed && len(s.buf) == replayBatch {
		s.flush()
	}
}

func (s *replaySink) FetchBlock(addr uint64, bytes, uops uint32) {
	s.fetch++
	if line := addr >> lineShift; line == s.lastFetchLine {
		s.fetchRepeat++
	} else {
		s.lastFetchLine = line
	}
	s.put(record{kind: 'f', a: addr, n: bytes, uops: uops})
}

func (s *replaySink) Branch(pc, target uint64, taken, indirect bool) {
	s.branch++
	s.put(record{kind: 'b', a: pc, b: target, flag1: taken, flag2: indirect})
}

func (s *replaySink) Data(addr uint64, size uint32, write bool) {
	s.data++
	if line := addr >> lineShift; line == s.lastDataLine {
		s.dataRepeat++
	} else {
		s.lastDataLine = line
	}
	s.put(record{kind: 'd', a: addr, n: size, flag1: write})
}

// flush replays every buffered record into the machine, timing only that.
func (s *replaySink) flush() {
	m := s.m
	start := time.Now()
	for i := range s.buf {
		r := &s.buf[i]
		switch r.kind {
		case 'f':
			m.FetchBlock(r.a, r.n, r.uops)
		case 'b':
			m.Branch(r.a, r.b, r.flag1, r.flag2)
		default:
			m.Data(r.a, r.n, r.flag1)
		}
	}
	s.self += time.Since(start)
	s.buf = s.buf[:0]
}

// layers accumulates the traced legs' per-layer measurements over cells.
type layers struct {
	guestBuild, guestRun    time.Duration
	events, insts           uint64
	tracerCalls, tracerData uint64

	hmBuild, hmSelf           time.Duration
	hmFetch, hmBranch, hmData uint64
	funcsCalled               int

	uarchBuild, uarchSelf  time.Duration
	uarchRecords           uint64
	fetchRecs, fetchRepeat uint64
	dataRecs, dataRepeat   uint64
	dsbUops, uops          float64

	// wall is the traced legs' wall-clock; session is the uarch legs'
	// alone, each a complete serial co-simulation.
	wall, session time.Duration
}

// traceCell runs one cell's traced legs and adds their measurements to l.
// The guest leg runs the guest over a counting tracer. A co-simulation
// cell adds a hostmodel leg (the code model over a counting sink; its self
// time is the leg minus the guest leg) and a uarch leg (the full session
// over a replay sink, timing only the replay). Every leg's outputs must
// match the oracle, so the traced session equals the untraced one; tally
// counts each leg.
func traceCell(c cell, ref cellRef, l *layers, tally func(string, error)) {
	start := time.Now()
	defer func() { l.wall += time.Since(start) }()
	leg := func(name, want string, body func() (*core.GuestResult, *uarch.Report, error)) {
		_, err := check(want, body)
		tally(c.name+" traced "+name+" leg", err)
	}

	var guestBuild, guestRun time.Duration
	leg("guest", ref.Guest, func() (*core.GuestResult, *uarch.Report, error) {
		ct := &countingTracer{NopTracer: sim.NewNopTracer()}
		t0 := time.Now()
		gs, err := core.BuildGuest(c.guest, ct)
		guestBuild = time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		t0 = time.Now()
		g, err := gs.Run()
		guestRun = time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		l.guestBuild += guestBuild
		l.guestRun += guestRun
		l.events += g.HostEvents
		l.insts += g.Insts
		l.tracerCalls += ct.calls
		l.tracerData += ct.data
		return g, nil, nil
	})
	if !c.cosim {
		return
	}

	leg("hostmodel", ref.Guest, func() (*core.GuestResult, *uarch.Report, error) {
		cs := &countingSink{}
		t0 := time.Now()
		cm := hostmodel.New(hostmodel.DefaultConfig(), cs)
		gs, err := core.BuildGuest(c.guest, cm)
		build := time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		t0 = time.Now()
		g, err := gs.Run()
		run := time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		l.hmBuild += nonNegative(build - guestBuild)
		l.hmSelf += nonNegative(run - guestRun)
		l.hmFetch += cs.fetch
		l.hmBranch += cs.branch
		l.hmData += cs.data
		l.funcsCalled += cm.CalledFuncs()
		return g, nil, nil
	})

	leg("uarch", ref.Full, func() (*core.GuestResult, *uarch.Report, error) {
		t0 := time.Now()
		m := uarch.NewMachine(c.host)
		build := time.Since(t0)
		rs := newReplaySink(m)
		cm := hostmodel.New(hostmodel.DefaultConfig(), rs)
		gs, err := core.BuildGuest(c.guest, cm)
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		mapSession(m, cm)
		build += time.Since(t1)
		rs.armed = true
		rs.flush()
		g, err := gs.Run()
		if err != nil {
			return nil, nil, err
		}
		rs.flush()
		rep := m.Report()
		l.session += time.Since(t0)
		l.uarchBuild += build
		l.uarchSelf += rs.self
		l.uarchRecords += rs.fetch + rs.branch + rs.data
		l.fetchRecs += rs.fetch
		l.fetchRepeat += rs.fetchRepeat
		l.dataRecs += rs.data
		l.dataRepeat += rs.dataRepeat
		l.dsbUops += rep.DSBCoverage * float64(rep.Uops)
		l.uops += float64(rep.Uops)
		return g, &rep, nil
	})
}

func nonNegative(d time.Duration) time.Duration {
	if d < 0 {
		return 0
	}
	return d
}
