package gem5prof_test

// One benchmark per table and figure of the paper (regenerating the
// corresponding experiment in quick mode), the ablation benches called out
// in DESIGN.md §5, and micro-benchmarks of the substrate hot paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The figure benches report the experiment's headline number via
// b.ReportMetric so regressions in *shape*, not just speed, show up.

import (
	"testing"
	"time"

	"gem5prof"

	"gem5prof/internal/hostmodel"
	"gem5prof/internal/mem"
	"gem5prof/internal/platform"
	"gem5prof/internal/sim"
	"gem5prof/internal/uarch"
)

var quick = gem5prof.ExperimentOptions{Quick: true}

// benchExperiment regenerates one figure/table per iteration.
func benchExperiment(b *testing.B, id string, metric func(*gem5prof.Experiment) (float64, string)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := gem5prof.RunExperiment(id, quick)
		if err != nil {
			b.Fatal(err)
		}
		if metric != nil {
			v, unit := metric(res)
			b.ReportMetric(v, unit)
		}
	}
}

func BenchmarkTableI(b *testing.B)  { benchExperiment(b, "table1", nil) }
func BenchmarkTableII(b *testing.B) { benchExperiment(b, "table2", nil) }

func BenchmarkFig01_PlatformSpeedup(b *testing.B) {
	benchExperiment(b, "fig01", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[0].Values[0], "m1pro-speedup-x"
	})
}

func BenchmarkFig02_TopDown(b *testing.B) {
	benchExperiment(b, "fig02", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[0].Values[1], "o3-frontend-%"
	})
}

func BenchmarkFig03_FESplit(b *testing.B) {
	benchExperiment(b, "fig03", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[0].Values[0], "o3-fe-latency-%"
	})
}

func BenchmarkFig04_FELatency(b *testing.B) {
	benchExperiment(b, "fig04", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[0].Values[0], "o3-icache-%"
	})
}

func BenchmarkFig05_FEBandwidth(b *testing.B) {
	benchExperiment(b, "fig05", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[0].Values[2], "o3-mite-share-%"
	})
}

func BenchmarkFig06_DSBCoverage(b *testing.B) {
	benchExperiment(b, "fig06", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[0].Values[0], "o3-dsb-coverage-%"
	})
}

func BenchmarkFig07_IPC(b *testing.B) {
	benchExperiment(b, "fig07", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[0].Values[1] / r.Rows[0].Values[0], "m1-ipc-ratio-x"
	})
}

func BenchmarkFig08_MissRates(b *testing.B) {
	benchExperiment(b, "fig08", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[0].Values[0], "xeon-itlb-miss-%"
	})
}

func BenchmarkFig09_LLCOccupancy(b *testing.B) {
	benchExperiment(b, "fig09", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[len(r.Rows)-1].Values[0], "fs-o3-llc-KB"
	})
}

func BenchmarkFig10_HugePages(b *testing.B) {
	benchExperiment(b, "fig10", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[3].Values[0], "o3-thp-speedup-%"
	})
}

func BenchmarkFig11_THPiTLB(b *testing.B) {
	benchExperiment(b, "fig11", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[3].Values[0], "o3-itlb-reduction-%"
	})
}

func BenchmarkFig12_O3Build(b *testing.B) {
	benchExperiment(b, "fig12", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[0].Values[2], "xeon-mean-speedup-%"
	})
}

func BenchmarkFig13_Frequency(b *testing.B) {
	benchExperiment(b, "fig13", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[0].Values[0], "1.2GHz-slowdown-x"
	})
}

func BenchmarkFig14_FireSimSweep(b *testing.B) {
	benchExperiment(b, "fig14", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[len(r.Rows)-1].Values[0], "best-atomic-speedup-x"
	})
}

func BenchmarkFig15_HotFunctions(b *testing.B) {
	benchExperiment(b, "fig15", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[3].Values[3], "o3-funcs-called"
	})
}

func BenchmarkFig16_MulticoreScaling(b *testing.B) {
	benchExperiment(b, "fig16", func(r *gem5prof.Experiment) (float64, string) {
		return r.Rows[0].Values[len(r.Rows[0].Values)-1], "dotprod-4core-speedup-x"
	})
}

// --- Multicore coherence benches ---

// benchGuestMT runs one mt-suite kernel on the Timing model at the given
// guest core count, reporting the simulated ticks the run took: the
// before/after pair below records what directory coherence costs the host
// (ns/op) and buys the guest (sim-ticks shrink with cores).
func benchGuestMT(b *testing.B, cores int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := gem5prof.RunGuest(gem5prof.GuestConfig{
			CPU: gem5prof.Timing, Workload: "dotprod_mt", Scale: 16384,
			Cores: cores,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.ChecksumOK {
			b.Fatalf("cores=%d: checksum mismatch", cores)
		}
		b.ReportMetric(float64(res.SimTicks), "sim-ticks")
	}
}

// BenchmarkGuestMTSerial / BenchmarkGuestMTQuad are a before/after pair:
// the same parallel kernel on a 1-core guest (the exact pre-multicore
// machine — no directory, no threading stats) versus a 4-core guest with
// per-core L1s behind the MESI directory. The host pays for four cores'
// events plus coherence traffic; the guest's simulated time drops.
func BenchmarkGuestMTSerial(b *testing.B) { benchGuestMT(b, 1) }
func BenchmarkGuestMTQuad(b *testing.B)   { benchGuestMT(b, 4) }

// --- Ablation benches (DESIGN.md §5) ---

// cosim runs one co-simulation and returns the modeled host seconds.
func cosim(b *testing.B, host gem5prof.HostConfig, hc gem5prof.HostCodeConfig) float64 {
	b.Helper()
	res, err := gem5prof.RunSession(gem5prof.SessionConfig{
		Guest: gem5prof.GuestConfig{
			CPU: gem5prof.O3, Mode: gem5prof.SE,
			Workload: "water_nsquared", Scale: 40,
		},
		Host:     host,
		HostCode: hc,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.SimSeconds()
}

// BenchmarkAblationDSB (A1): how much the Xeon's uop cache buys on gem5.
func BenchmarkAblationDSB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := cosim(b, gem5prof.IntelXeon(), gem5prof.HostCodeConfig{})
		no := gem5prof.IntelXeon()
		no.DSBUops = 0
		without := cosim(b, no, gem5prof.HostCodeConfig{})
		b.ReportMetric(without/with, "dsb-speedup-x")
	}
}

// BenchmarkAblationVIPT (A2): free L1I geometry (no VIPT constraint) vs the
// constrained baseline — what the Xeon could do with a 128KB L1I.
func BenchmarkAblationVIPT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := cosim(b, gem5prof.IntelXeon(), gem5prof.HostCodeConfig{})
		big := gem5prof.IntelXeon()
		big.L1I = uarch.CacheGeom{SizeBytes: 128 << 10, Ways: 8, LineBytes: 64}
		big.SkipVIPTCheck = true
		free := cosim(b, big, gem5prof.HostCodeConfig{})
		b.ReportMetric(base/free, "non-vipt-speedup-x")
	}
}

// BenchmarkAblationMLP (A3): the analytical MLP overlap factor.
func BenchmarkAblationMLP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := cosim(b, gem5prof.IntelXeon(), gem5prof.HostCodeConfig{})
		none := gem5prof.IntelXeon()
		none.MLPOverlap = 0
		noOverlap := cosim(b, none, gem5prof.HostCodeConfig{})
		b.ReportMetric(noOverlap/base, "mlp-slowdown-x")
	}
}

// BenchmarkAblationLayout (A4): scattered (bit-reversed) function placement
// versus densely packed link order.
func BenchmarkAblationLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scattered := cosim(b, gem5prof.IntelXeon(), gem5prof.HostCodeConfig{})
		packed := hostmodel.DefaultConfig()
		packed.TextSlots = 2 // force sequential overflow placement
		dense := cosim(b, gem5prof.IntelXeon(), packed)
		b.ReportMetric(scattered/dense, "layout-cost-x")
	}
}

// BenchmarkAblationEventQueue (A5): binary heap vs calendar queue backend,
// measured on real wall-clock per guest instruction.
func BenchmarkAblationEventQueue(b *testing.B) {
	for _, backend := range []struct {
		name string
		cal  bool
	}{{"heap", false}, {"calendar", true}} {
		b.Run(backend.name, func(b *testing.B) {
			insts := uint64(0)
			for i := 0; i < b.N; i++ {
				res, err := gem5prof.RunGuest(gem5prof.GuestConfig{
					CPU: gem5prof.Timing, Workload: "sieve", Scale: 4096,
					CalendarQueue: backend.cal,
				})
				if err != nil {
					b.Fatal(err)
				}
				insts += res.Insts
			}
			b.ReportMetric(float64(insts)/float64(b.N), "guest-insts")
		})
	}
}

// --- Sampled simulation benches ---

// simpointFigs is the figure set that opts into SimPoint sampling under
// the harness's -simpoint flag (fig11 needs a full Top-Down report, so it
// never samples).
var simpointFigs = []string{"fig10", "fig12", "fig13"}

// benchSimpointSuite times the sampled figure set end to end at -j1 from
// cold caches: BBV profiling, clustering, Atomic fast-forward
// checkpointing, and the per-cell representative-interval measurements.
func benchSimpointSuite(b *testing.B, opt gem5prof.ExperimentOptions) {
	b.Helper()
	opt.Quick = true
	opt.Jobs = 1
	for i := 0; i < b.N; i++ {
		gem5prof.ResetExperimentCaches()
		for oc := range gem5prof.RunExperiments(simpointFigs, opt) {
			if oc.Err != nil {
				b.Fatal(oc.Err)
			}
		}
	}
	gem5prof.ResetExperimentCaches()
}

// BenchmarkSimpointFullSuite / BenchmarkSimpointSampledSuite are a
// before/after pair: the same quick sweep figures fully simulated versus
// SimPoint-sampled (target >=10x; the per-cell error that goes with the
// speedup is held by TestSampledFiguresError in internal/experiments).
func BenchmarkSimpointFullSuite(b *testing.B) {
	benchSimpointSuite(b, gem5prof.ExperimentOptions{})
}

func BenchmarkSimpointSampledSuite(b *testing.B) {
	benchSimpointSuite(b, gem5prof.ExperimentOptions{SimPoint: true})
}

// BenchmarkSimpointSampledWarmCache is the sampled suite with a persistent
// checkpoint cache already populated (the cross-process fast path): the
// Atomic fast-forward passes are replaced by verified cache restores.
func BenchmarkSimpointSampledWarmCache(b *testing.B) {
	opt := gem5prof.ExperimentOptions{Quick: true, Jobs: 1, SimPoint: true, CkptCacheDir: b.TempDir()}
	// Populate the cache once, outside the timed loop.
	gem5prof.ResetExperimentCaches()
	for oc := range gem5prof.RunExperiments(simpointFigs, opt) {
		if oc.Err != nil {
			b.Fatal(oc.Err)
		}
	}
	b.ResetTimer()
	benchSimpointSuite(b, opt)
}

// --- Parallel harness benches ---

// BenchmarkSessionRunParallel drives independent co-simulation sessions from
// GOMAXPROCS goroutines at once. RunSession is documented as safe for
// concurrent use; this bench is the scaling (and, under -race, the safety)
// witness for that claim.
func BenchmarkSessionRunParallel(b *testing.B) {
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := gem5prof.RunSession(gem5prof.SessionConfig{
				Guest: gem5prof.GuestConfig{
					CPU: gem5prof.Timing, Mode: gem5prof.SE,
					Workload: "sieve", Scale: 2048,
				},
				Host: gem5prof.IntelXeon(),
			})
			if err != nil {
				b.Fatal(err)
			}
			_ = res.SimSeconds()
		}
	})
}

// BenchmarkHarnessSpeedup times the quick Top-Down experiment set
// sequentially (-j 1) and on the full pool (-j GOMAXPROCS) from a cold
// Top-Down cache each time, reporting the ratio of the summed wall-clocks.
// One discarded pass warms the process first and the leg that runs first
// alternates per iteration, so neither leg alone pays for process warm-up.
// On a 1-core host it reports ~1.0x; the gain appears with cores.
func BenchmarkHarnessSpeedup(b *testing.B) {
	ids := []string{"fig02", "fig03", "fig04", "fig05", "fig06"}
	runSet := func(jobs int) time.Duration {
		gem5prof.ResetExperimentCaches()
		start := time.Now()
		for oc := range gem5prof.RunExperiments(ids, gem5prof.ExperimentOptions{Quick: true, Jobs: jobs}) {
			if oc.Err != nil {
				b.Fatal(oc.Err)
			}
		}
		return time.Since(start)
	}
	runSet(0)
	b.ResetTimer()
	var seq, par time.Duration
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			seq += runSet(1)
			par += runSet(0)
		} else {
			par += runSet(0)
			seq += runSet(1)
		}
	}
	b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup-x")
	gem5prof.ResetExperimentCaches()
}

// --- Substrate micro-benches ---

// benchEventQueue measures a queue backend in two regimes:
//
//   - pingpong: schedule one event, service it immediately. Queue depth
//     oscillates between 0 and 1, so this isolates the per-event fixed
//     cost but exercises no bucket/heap pressure at all.
//   - depth64: the queue holds a steady-state population of 64 pending
//     events; each iteration services the earliest and reschedules it at
//     a varying future tick. This is the regime the simulator actually
//     runs in (many in-flight cache/DRAM/pipeline events) and is what
//     stresses heap sift depth and calendar bucket scans/window slides.
//
// The earlier version of these benches only did the ping-pong pattern,
// which made the calendar queue look uniformly slower than the heap; at
// real depths the picture is workload-dependent.
func benchEventQueue(b *testing.B, mk func() sim.Queue) {
	b.Run("pingpong", func(b *testing.B) {
		q := mk()
		e := sim.NewEvent("e", 0, func() {})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Schedule(e, q.Now()+sim.Tick(i%1000))
			q.ServiceOne()
		}
	})
	b.Run("depth64", func(b *testing.B) {
		const depth = 64
		q := mk()
		var freed *sim.Event
		evs := make([]*sim.Event, depth)
		for i := range evs {
			var e *sim.Event
			e = sim.NewEvent("e", 0, func() { freed = e })
			evs[i] = e
		}
		for i, e := range evs {
			q.Schedule(e, q.Now()+sim.Tick(1+(i*37)%997))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Service the earliest of the 64 pending events and put it
			// back in the future: constant steady-state depth.
			q.ServiceOne()
			q.Schedule(freed, q.Now()+sim.Tick(1+(i*31)%997))
		}
		b.StopTimer()
		// Drain so every scheduled event is serviced, not leaked.
		for !q.Empty() {
			q.ServiceOne()
		}
		if q.Len() != 0 {
			b.Fatalf("queue not drained: %d left", q.Len())
		}
	})
}

func BenchmarkEventQueueHeap(b *testing.B) {
	benchEventQueue(b, func() sim.Queue { return sim.NewHeapQueue() })
}

func BenchmarkEventQueueCalendar(b *testing.B) {
	benchEventQueue(b, func() sim.Queue { return sim.NewCalendarQueue(256, 100) })
}

func BenchmarkGuestAtomicMIPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := gem5prof.RunGuest(gem5prof.GuestConfig{
			CPU: gem5prof.Atomic, Workload: "sieve", Scale: 8192,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(res.Insts))
	}
}

func BenchmarkGuestO3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gem5prof.RunGuest(gem5prof.GuestConfig{
			CPU: gem5prof.O3, Workload: "dedup", Scale: 4096,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCosimXeon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cosim(b, gem5prof.IntelXeon(), gem5prof.HostCodeConfig{})
	}
}

func BenchmarkGuestCacheAtomicAccess(b *testing.B) {
	sys := sim.NewSystem(1)
	l1d := mem.NewMultiHierarchy(sys, mem.DefaultHierarchyConfig("b"), 1).L1D[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1d.AtomicLatency(mem.Access{Addr: uint32(i*64) % (1 << 22), Size: 8})
	}
}

func BenchmarkHostMachineFetch(b *testing.B) {
	m := uarch.NewMachine(platform.IntelXeon())
	m.MapText(0x40_0000, 0x40_0000+64<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.FetchBlock(0x40_0000+uint64(i*64)%(8<<20), 32, 8)
	}
}

// BenchmarkSPECGenerators exercises the three reference workload models.
func BenchmarkSPECGenerators(b *testing.B) {
	for _, name := range gem5prof.SPECNames() {
		b.Run(name, func(b *testing.B) {
			p, err := gem5prof.SPECByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				m := uarch.NewMachine(platform.IntelXeon())
				rep := p.Run(m, 50_000)
				b.ReportMetric(rep.IPC, "uops/cycle")
			}
		})
	}
}
