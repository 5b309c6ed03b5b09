package main

import (
	"fmt"
	"runtime"
	"time"

	"gem5prof/internal/core"
	"gem5prof/internal/experiments"
	"gem5prof/internal/uarch"
)

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not reach reads 0 (the
// suite's cells run inside the harness, so its guest, hostmodel and uarch
// rows are 0, and only the suite times experiments).
var perLayer = func() [][2]string {
	out := [][2]string{
		{"guest.build_s", "s"}, {"guest.run_s", "s"}, {"guest.events", "count"}, {"guest.insts", "count"},
		{"guest.ns_per_event", "ns"}, {"guest.tracer_calls", "count"}, {"guest.tracer_data", "count"},
		{"hostmodel.build_s", "s"}, {"hostmodel.self_s", "s"}, {"hostmodel.fetch_blocks", "count"},
		{"hostmodel.branches", "count"}, {"hostmodel.data_refs", "count"}, {"hostmodel.records_per_event", "ratio"},
		{"hostmodel.ns_per_record", "ns"}, {"hostmodel.funcs_called", "count"},
		{"uarch.build_s", "s"}, {"uarch.self_s", "s"}, {"uarch.ns_per_record", "ns"},
		{"uarch.fetch_repeat_frac", "ratio"}, {"uarch.data_repeat_frac", "ratio"}, {"uarch.dsb_coverage", "ratio"},
		{"ring.pipeline_x", "ratio"}, {"ring.pipeline_x_q1", "ratio"}, {"ring.pipeline_x_q3", "ratio"},
		{"sim.shard_x", "ratio"}, {"sim.shard_x_q1", "ratio"}, {"sim.shard_x_q3", "ratio"}, {"host.nproc", "count"},
		{"experiments.cpu_util", "ratio"},
		{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_s", "s"}, {"runtime.mallocs", "count"},
		{"trace.overhead_frac", "ratio"}, {"trace.unattributed_frac", "ratio"},
	}
	for _, id := range suiteIDs {
		out = append(out, [2]string{"experiments." + id + "_s", "s"})
	}
	return out
}()

// basePasses is how many untraced passes a traced run makes first; their
// median wall is the base the tracing overhead is taken against.
const basePasses = 3

// traced measures the per-layer split. It runs basePasses untraced passes
// (the last gives the runtime counters), then the traced legs of every
// cell, or for the suite each experiment alone, and then the coordination
// A/B ratios.
func (b *bench) traced() metrics {
	ms := metrics{}
	for _, m := range perLayer {
		ms[m[0]] = metric{0, m[1]}
	}
	set := func(name string, v float64) { ms[name] = metric{v, ms[name].Unit} }
	nproc := runtime.NumCPU()

	var base sample
	var baseWalls []float64
	for i := 0; i < basePasses; i++ {
		base = measure(b.pass)
		baseWalls = append(baseWalls, base.wall.Seconds())
	}
	set("runtime.gc_cycles", float64(base.mem.NumGC))
	set("runtime.gc_pause_s", float64(base.mem.PauseTotalNs)/1e9)
	set("runtime.mallocs", float64(base.mem.Mallocs))
	set("experiments.cpu_util", base.cpu.Seconds()/(base.wall.Seconds()*float64(nproc)))
	set("host.nproc", float64(nproc))

	var tracedWall time.Duration
	if b.workload == "suite" {
		for _, id := range suiteIDs {
			experiments.ResetCaches()
			t0 := time.Now()
			res, err := experiments.Run(id, experiments.Options{Quick: true, Jobs: nproc})
			d := time.Since(t0)
			b.tally(id+" alone", b.checkReport(id, res, err))
			tracedWall += d
			set("experiments."+id+"_s", d.Seconds())
		}
	} else {
		var l layers
		for _, c := range b.cells() {
			traceCell(c, b.ref.Cells[c.name], &l, b.tally)
		}
		tracedWall = l.wall
		b.setLayers(set, &l)
	}
	set("trace.overhead_frac", tracedWall.Seconds()/median(baseWalls)-1)

	pipe := b.abRatios(
		func() { b.runSessionMode(core.PipelineOff) },
		func() { b.runSessionMode(core.PipelineOn) })
	set("ring.pipeline_x", median(pipe))
	q1, q3 := quartiles(pipe)
	set("ring.pipeline_x_q1", q1)
	set("ring.pipeline_x_q3", q3)

	shard := b.abRatios(
		func() { b.runShardMode(false) },
		func() { b.runShardMode(true) })
	set("sim.shard_x", median(shard))
	q1, q3 = quartiles(shard)
	set("sim.shard_x_q1", q1)
	set("sim.shard_x_q3", q3)
	return ms
}

// setLayers derives the per-layer metrics from the traced legs' totals.
func (b *bench) setLayers(set func(string, float64), l *layers) {
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	hmRecords := float64(l.hmFetch + l.hmBranch + l.hmData)
	set("guest.build_s", l.guestBuild.Seconds())
	set("guest.run_s", l.guestRun.Seconds())
	set("guest.events", float64(l.events))
	set("guest.insts", float64(l.insts))
	set("guest.ns_per_event", ratio(float64(l.guestRun.Nanoseconds()), float64(l.events)))
	set("guest.tracer_calls", float64(l.tracerCalls))
	set("guest.tracer_data", float64(l.tracerData))
	set("hostmodel.build_s", l.hmBuild.Seconds())
	set("hostmodel.self_s", l.hmSelf.Seconds())
	set("hostmodel.fetch_blocks", float64(l.hmFetch))
	set("hostmodel.branches", float64(l.hmBranch))
	set("hostmodel.data_refs", float64(l.hmData))
	set("hostmodel.records_per_event", ratio(hmRecords, float64(l.events)))
	set("hostmodel.ns_per_record", ratio(float64(l.hmSelf.Nanoseconds()), hmRecords))
	set("hostmodel.funcs_called", float64(l.funcsCalled))
	set("uarch.build_s", l.uarchBuild.Seconds())
	set("uarch.self_s", l.uarchSelf.Seconds())
	set("uarch.ns_per_record", ratio(float64(l.uarchSelf.Nanoseconds()), float64(l.uarchRecords)))
	set("uarch.fetch_repeat_frac", ratio(float64(l.fetchRepeat), float64(l.fetchRecs)))
	set("uarch.data_repeat_frac", ratio(float64(l.dataRepeat), float64(l.dataRecs)))
	set("uarch.dsb_coverage", ratio(l.dsbUops, l.uops))

	// What the layers' build and self times leave unexplained of one
	// complete traced session (or, for guest-only cells, of the legs).
	whole := l.session
	if whole == 0 {
		whole = l.wall
	}
	parts := l.guestBuild + l.guestRun + l.hmBuild + l.hmSelf + l.uarchBuild + l.uarchSelf
	set("trace.unattributed_frac", 1-ratio(parts.Seconds(), whole.Seconds()))
}

// abRatios alternates a and b abRounds times, flipping which runs first
// each round, and returns the per-round ratios wall(a)/wall(b).
func (b *bench) abRatios(a, bfn func()) []float64 {
	timed := func(fn func()) float64 {
		t0 := time.Now()
		fn()
		return time.Since(t0).Seconds()
	}
	var out []float64
	for i := 0; i < abRounds; i++ {
		var ta, tb float64
		if i%2 == 0 {
			ta = timed(a)
			tb = timed(bfn)
		} else {
			tb = timed(bfn)
			ta = timed(a)
		}
		out = append(out, ta/tb)
	}
	return out
}

// runSessionMode runs the first co-simulation cell in one pipeline mode.
func (b *bench) runSessionMode(mode core.PipelineMode) {
	c := cosimCells(b.seed)[0]
	c.pipeline = mode
	_, err := check(b.ref.Cells[c.name].Full, func() (*core.GuestResult, *uarch.Report, error) { return runUntraced(c) })
	b.tally(fmt.Sprintf("%s pipeline %v", c.name, mode), err)
}

// runShardMode runs the multicore guest cells serial, or sharded one
// shard per core plus the memory shard.
func (b *bench) runShardMode(sharded bool) {
	for _, c := range guestCells(b.seed) {
		if c.guest.Cores < 2 {
			continue
		}
		c.guest.Shards = core.ShardSerial
		if sharded {
			c.guest.Shards = core.ShardMode(1 + c.guest.Cores)
		}
		_, err := check(b.ref.Cells[c.name].Full, func() (*core.GuestResult, *uarch.Report, error) { return runUntraced(c) })
		b.tally(fmt.Sprintf("%s shards %v", c.name, c.guest.Shards), err)
	}
}
