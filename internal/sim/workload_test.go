package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// The tests in this file drive synthetic systems shaped like the real
// guests through System.Run on both queue backends and require the heap and
// calendar runs to agree in every host-visible respect: the RunResult, the
// event count, the workload's own counters, and the exact order of the
// Call/Data records the host model would see. Same-tick collisions,
// Reschedules and exits are deliberate: (when, prio, seq) ordering must
// break every tie the same way in both backends.

// seqTracer records the exact sequence of Call/Data records it receives.
type seqTracer struct {
	NopTracer
	log []string
}

func (t *seqTracer) Call(fn FuncID) { t.log = append(t.log, fmt.Sprintf("C%d", fn)) }
func (t *seqTracer) Data(addr uint64, size uint32, write bool) {
	t.log = append(t.log, fmt.Sprintf("D%x/%d/%v", addr, size, write))
}

// splitmix is a tiny deterministic PRNG for workload generation.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b289
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// memLatency is the synthetic memory's minimum response time.
const memLatency = Tick(15000)

// newBackend returns a fresh queue of the selected backend.
func newBackend(calendar bool) Queue {
	if calendar {
		return NewCalendarQueue(256, 1000)
	}
	return NewHeapQueue()
}

// cpuMemWorkload is one CPU tick chain that issues memory accesses, each
// answered by a response at least memLatency later. Delays are multiples of
// the clock period, so accesses, responses and ticks collide on one tick.
type cpuMemWorkload struct {
	sys    *System
	fnCPU  FuncID
	fnMem  FuncID
	fnResp FuncID
	rng    splitmix
	issued int
	maxOps int
	retire uint64
	exitAt int // retire count at which to RequestExit (0 = never)
}

func newCPUMemWorkload(sys *System, seed uint64, maxOps, exitAt int) *cpuMemWorkload {
	w := &cpuMemWorkload{sys: sys, rng: splitmix(seed), maxOps: maxOps, exitAt: exitAt}
	tr := sys.Tracer()
	w.fnCPU = tr.RegisterFunc("test::cpuTick", 100, FuncHot)
	w.fnMem = tr.RegisterFunc("test::memAccess", 200, 0)
	w.fnResp = tr.RegisterFunc("test::resp", 50, FuncHot)
	return w
}

// start schedules the initial CPU tick chain.
func (w *cpuMemWorkload) start() {
	tick := NewEventPrio("cpu.tick", w.fnCPU, PrioCPUTick, nil)
	tick.fire = func() {
		w.sys.Tracer().Call(w.fnCPU)
		w.sys.Tracer().Data(uint64(w.sys.Now())<<8|uint64(w.issued&0xff), 8, false)
		if w.issued < w.maxOps {
			w.issued++
			id := w.issued
			d := Tick(1000 * (1 + w.rng.next()%40))
			acc := NewEvent(fmt.Sprintf("mem.acc.%d", id), w.fnMem, nil)
			acc.fire = func() { w.memFire(id) }
			w.sys.ScheduleIn(acc, d)
			w.sys.ScheduleIn(tick, 1000)
		}
	}
	w.sys.Schedule(tick, 1000)
}

// memFire records the access and schedules its response.
func (w *cpuMemWorkload) memFire(id int) {
	tr := w.sys.Tracer()
	tr.Call(w.fnMem)
	tr.Data(uint64(w.sys.Now())<<8|uint64(id&0xff), 64, true)
	h := splitmix(uint64(id) * 0x5851f42d4c957f2d)
	extra := Tick(1000 * (h.next() % 8))
	resp := NewEvent(fmt.Sprintf("mem.resp.%d", id), w.fnResp, nil)
	resp.fire = func() { w.respFire(id) }
	w.sys.ScheduleIn(resp, memLatency+1000+extra)
}

func (w *cpuMemWorkload) respFire(id int) {
	tr := w.sys.Tracer()
	tr.Call(w.fnResp)
	tr.Data(uint64(w.sys.Now())<<8|uint64(id&0xff), 8, false)
	w.retire++
	if w.exitAt > 0 && w.retire == uint64(w.exitAt) {
		w.sys.RequestExit("test exit", 7)
	}
}

// runOut is everything a differential leg compares.
type runOut struct {
	res     RunResult
	log     []string
	evServ  uint64
	retired uint64
}

// runWorkload builds and runs one cpuMemWorkload on the selected backend.
func runWorkload(calendar bool, seed uint64, maxOps, exitAt int, limit Tick) runOut {
	tr := &seqTracer{}
	sys := NewSystemWith(newBackend(calendar), tr, 42)
	w := newCPUMemWorkload(sys, seed, maxOps, exitAt)
	w.start()
	res := sys.Run(limit, 0)
	return runOut{res: res, log: tr.log, evServ: sys.EventsServiced(), retired: w.retire}
}

// diffRuns fails the test at the first respect in which got differs from want.
func diffRuns(t *testing.T, name string, want, got runOut) {
	t.Helper()
	if want.res != got.res {
		t.Fatalf("%s: RunResult diverged: heap %+v calendar %+v", name, want.res, got.res)
	}
	if want.evServ != got.evServ {
		t.Fatalf("%s: EventsServiced diverged: %d vs %d", name, want.evServ, got.evServ)
	}
	if want.retired != got.retired {
		t.Fatalf("%s: workload counters diverged: %d vs %d", name, want.retired, got.retired)
	}
	if !reflect.DeepEqual(want.log, got.log) {
		i := 0
		for i < len(want.log) && i < len(got.log) && want.log[i] == got.log[i] {
			i++
		}
		t.Fatalf("%s: trace diverged at record %d (of %d/%d): heap %q calendar %q",
			name, i, len(want.log), len(got.log), tail(want.log, i), tail(got.log, i))
	}
}

func tail(log []string, i int) []string {
	if i >= len(log) {
		return nil
	}
	end := i + 5
	if end > len(log) {
		end = len(log)
	}
	return log[i:end]
}

// TestShardedBitIdentical: the CPU/memory workload runs to completion with
// identical results, event counts and trace order on both backends, and a
// rerun on the same backend reproduces itself.
func TestShardedBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		name := fmt.Sprintf("seed=%d", seed)
		heap := runWorkload(false, seed, 300, 0, MaxTick)
		if heap.res.Status != ExitQueueEmpty || heap.retired != 300 {
			t.Fatalf("%s: workload did not run to completion: %+v, %d retired", name, heap.res, heap.retired)
		}
		diffRuns(t, name+"/rerun", heap, runWorkload(false, seed, 300, 0, MaxTick))
		diffRuns(t, name, heap, runWorkload(true, seed, 300, 0, MaxTick))
	}
}

// TestShardedExitTruncation: a component-requested exit stops both backends
// after the same event, with the same results.
func TestShardedExitTruncation(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, exitAt := range []int{1, 17, 100} {
			name := fmt.Sprintf("seed=%d/exitAt=%d", seed, exitAt)
			heap := runWorkload(false, seed, 300, exitAt, MaxTick)
			if heap.res.Status != ExitRequested || heap.res.ExitCode != 7 || heap.retired != uint64(exitAt) {
				t.Fatalf("%s: unexpected exit %+v, %d retired", name, heap.res, heap.retired)
			}
			diffRuns(t, name, heap, runWorkload(true, seed, 300, exitAt, MaxTick))
		}
	}
}

// TestShardedTickLimit: limit-bounded runs stop at the same event on both
// backends, never run past the limit, and stop on it exactly when the
// workload would otherwise run longer.
func TestShardedTickLimit(t *testing.T) {
	end := runWorkload(false, 3, 300, 0, MaxTick).res.Now
	for _, limit := range []Tick{10_000, 123_000, 1_000_000} {
		name := fmt.Sprintf("limit=%d", limit)
		heap := runWorkload(false, 3, 300, 0, limit)
		if (heap.res.Status == ExitLimit) != (limit < end) || heap.res.Now > limit {
			t.Fatalf("%s: unexpected stop %+v (full run ends at %d)", name, heap.res, end)
		}
		diffRuns(t, name, heap, runWorkload(true, 3, 300, 0, limit))
	}
}

// TestShardedMultiRun: Run may be called repeatedly with growing limits
// (how the experiment drivers advance in intervals). The per-call results
// agree across backends, and the concatenated run is the same event stream
// as one uninterrupted run.
func TestShardedMultiRun(t *testing.T) {
	run := func(calendar bool, limits []Tick) ([]RunResult, []string, uint64) {
		tr := &seqTracer{}
		sys := NewSystemWith(newBackend(calendar), tr, 42)
		w := newCPUMemWorkload(sys, 5, 200, 0)
		w.start()
		var rs []RunResult
		for _, lim := range limits {
			rs = append(rs, sys.Run(lim, 0))
		}
		return rs, tr.log, sys.EventsServiced()
	}
	steps := []Tick{50_000, 150_000, MaxTick}
	hr, hlog, hev := run(false, steps)
	cr, clog, cev := run(true, steps)
	if !reflect.DeepEqual(hr, cr) {
		t.Fatalf("multi-run results diverged:\nheap     %+v\ncalendar %+v", hr, cr)
	}
	if hev != cev {
		t.Fatalf("EventsServiced diverged: %d vs %d", hev, cev)
	}
	if !reflect.DeepEqual(hlog, clog) {
		t.Fatalf("trace diverged (%d vs %d records)", len(hlog), len(clog))
	}
	_, olog, oev := run(false, []Tick{MaxTick})
	if oev != hev || !reflect.DeepEqual(olog, hlog) {
		t.Fatalf("stepped run differs from one uninterrupted run: %d vs %d events, %d vs %d records",
			hev, oev, len(hlog), len(olog))
	}
}

// mcWorkload is a synthetic multicore system: one tick chain per core,
// memory accesses whose responses return to the issuing core, and
// cross-core pokes (Reschedules of a sibling's event, sometimes onto the
// very tick being serviced).
type mcWorkload struct {
	sys    *System
	fnCPU  FuncID
	fnMem  FuncID
	fnResp FuncID
	fnPoke FuncID
	rng    splitmix
	cores  int
	issued int
	maxOps int
	retire uint64
	poked  uint64
	exitAt int
	pokeEv []*Event // per-core reschedulable poke targets
}

func newMCWorkload(sys *System, cores int, seed uint64, maxOps, exitAt int) *mcWorkload {
	w := &mcWorkload{sys: sys, rng: splitmix(seed), cores: cores, maxOps: maxOps, exitAt: exitAt}
	tr := sys.Tracer()
	w.fnCPU = tr.RegisterFunc("test::mcTick", 100, FuncHot)
	w.fnMem = tr.RegisterFunc("test::mcMem", 200, 0)
	w.fnResp = tr.RegisterFunc("test::mcResp", 50, FuncHot)
	w.fnPoke = tr.RegisterFunc("test::mcPoke", 30, 0)
	return w
}

func (w *mcWorkload) start() {
	for i := 0; i < w.cores; i++ {
		core := i
		poke := NewEvent(fmt.Sprintf("cpu%d.poke", core), w.fnPoke, nil)
		poke.fire = func() {
			w.poked++
			w.sys.Tracer().Call(w.fnPoke)
			w.sys.Tracer().Data(uint64(core)<<32|uint64(w.sys.Now()), 4, true)
		}
		w.pokeEv = append(w.pokeEv, poke)

		tick := NewEventPrio(fmt.Sprintf("cpu%d.tick", core), w.fnCPU, PrioCPUTick, nil)
		tick.fire = func() {
			w.sys.Tracer().Call(w.fnCPU)
			w.sys.Tracer().Data(uint64(w.sys.Now())<<8|uint64(core), 8, false)
			if w.issued >= w.maxOps {
				return
			}
			w.issued++
			id := w.issued
			r := w.rng.next()
			acc := NewEvent(fmt.Sprintf("mem.acc.%d", id), w.fnMem, nil)
			acc.fire = func() { w.memFire(id, core) }
			w.sys.ScheduleIn(acc, Tick(1000*(1+r%40)))
			if w.cores > 1 && r%3 == 0 {
				sib := (core + 1 + int(r>>8)%(w.cores-1)) % w.cores
				delta := Tick(1000 * (r >> 16 % 3)) // 0, 1000, or 2000
				w.sys.Reschedule(w.pokeEv[sib], w.sys.Now()+delta)
			}
			w.sys.ScheduleIn(tick, 1000)
		}
		w.sys.Schedule(tick, Tick(1000*(1+core)))
	}
}

func (w *mcWorkload) memFire(id, core int) {
	tr := w.sys.Tracer()
	tr.Call(w.fnMem)
	tr.Data(uint64(w.sys.Now())<<8|uint64(id&0xff), 64, true)
	h := splitmix(uint64(id) * 0x5851f42d4c957f2d)
	extra := Tick(1000 * (h.next() % 8))
	resp := NewEvent(fmt.Sprintf("mem.resp.%d", id), w.fnResp, nil)
	resp.fire = func() { w.respFire(id, core) }
	w.sys.ScheduleIn(resp, memLatency+1000+extra)
}

func (w *mcWorkload) respFire(id, core int) {
	tr := w.sys.Tracer()
	tr.Call(w.fnResp)
	tr.Data(uint64(w.sys.Now())<<8|uint64(id&0xff)|uint64(core)<<40, 8, false)
	w.retire++
	if w.exitAt > 0 && w.retire == uint64(w.exitAt) {
		w.sys.RequestExit("mc test exit", 9)
	}
}

// runMC builds and runs one mcWorkload on the selected backend.
func runMC(calendar bool, cores int, seed uint64, maxOps, exitAt int, limit Tick) runOut {
	tr := &seqTracer{}
	sys := NewSystemWith(newBackend(calendar), tr, 42)
	w := newMCWorkload(sys, cores, seed, maxOps, exitAt)
	w.start()
	res := sys.Run(limit, 0)
	return runOut{res: res, log: tr.log, evServ: sys.EventsServiced(), retired: w.retire + w.poked}
}

// TestPerCoreBitIdentical: the 2- and 4-core workloads, pokes and all, run
// to completion with identical results on both backends and on a rerun.
func TestPerCoreBitIdentical(t *testing.T) {
	for _, cores := range []int{2, 4} {
		for seed := uint64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("cores=%d/seed=%d", cores, seed)
			heap := runMC(false, cores, seed, 200, 0, MaxTick)
			if heap.res.Status != ExitQueueEmpty || heap.retired <= 200 {
				t.Fatalf("%s: workload did not run to completion with pokes: %+v, %d retired+poked",
					name, heap.res, heap.retired)
			}
			diffRuns(t, name+"/rerun", heap, runMC(false, cores, seed, 200, 0, MaxTick))
			diffRuns(t, name, heap, runMC(true, cores, seed, 200, 0, MaxTick))
		}
	}
}

// TestPerCoreExitTruncation: an exit requested from one core's response
// stops both backends after the same event.
func TestPerCoreExitTruncation(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, exitAt := range []int{1, 13, 80} {
			name := fmt.Sprintf("seed=%d/exitAt=%d", seed, exitAt)
			heap := runMC(false, 4, seed, 200, exitAt, MaxTick)
			if heap.res.Status != ExitRequested || heap.res.ExitCode != 9 {
				t.Fatalf("%s: unexpected exit %+v", name, heap.res)
			}
			diffRuns(t, name, heap, runMC(true, 4, seed, 200, exitAt, MaxTick))
		}
	}
}

// TestPerCoreMultiRun: repeated Run calls with growing limits (the interval
// runner's pattern) on the 4-core workload agree across backends and with
// one uninterrupted run.
func TestPerCoreMultiRun(t *testing.T) {
	run := func(calendar bool, limits []Tick) ([]RunResult, []string, uint64) {
		tr := &seqTracer{}
		sys := NewSystemWith(newBackend(calendar), tr, 42)
		w := newMCWorkload(sys, 4, 11, 150, 0)
		w.start()
		var rs []RunResult
		for _, lim := range limits {
			rs = append(rs, sys.Run(lim, 0))
		}
		return rs, tr.log, sys.EventsServiced()
	}
	steps := []Tick{50_000, 150_000, MaxTick}
	hr, hlog, hev := run(false, steps)
	cr, clog, cev := run(true, steps)
	if !reflect.DeepEqual(hr, cr) {
		t.Fatalf("multi-run results diverged:\nheap     %+v\ncalendar %+v", hr, cr)
	}
	if hev != cev {
		t.Fatalf("EventsServiced diverged: %d vs %d", hev, cev)
	}
	if !reflect.DeepEqual(hlog, clog) {
		t.Fatalf("trace diverged (%d vs %d records)", len(hlog), len(clog))
	}
	_, olog, oev := run(false, []Tick{MaxTick})
	if oev != hev || !reflect.DeepEqual(olog, hlog) {
		t.Fatalf("stepped run differs from one uninterrupted run: %d vs %d events, %d vs %d records",
			hev, oev, len(hlog), len(olog))
	}
}
