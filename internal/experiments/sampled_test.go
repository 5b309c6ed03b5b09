package experiments

// Sampled-simulation witnesses for the -simpoint path: the per-cell
// modeled seconds of the figures that opt into sampling must stay inside
// the documented error bound against full simulation, and the sampled
// reports must be byte-identical at any parallelism (the same guarantee
// the full harness makes).

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/hostmodel"
	"gem5prof/internal/platform"
	"gem5prof/internal/uarch"
)

// sampledErrorCells is a cross-figure slice of the sweep cells that run
// sampled under -simpoint: a CPU-model x page-mode spread from fig10, the
// build-size pairs from fig12, and the frequency endpoints (plus the
// normalization base) from fig13. Seeds reproduce each cell's position in
// its figure, so the measurement matches what the figures actually run.
func sampledErrorCells() []struct {
	name string
	sc   core.SessionConfig
} {
	type cell = struct {
		name string
		sc   core.SessionConfig
	}
	opt := Options{Quick: true}
	var cells []cell

	// fig10 grid: cell i = cpu*len(modes) + mode.
	modes := []uarch.HugePageMode{uarch.PagesBase, uarch.PagesTHP, uarch.PagesEHP}
	for _, pick := range []struct {
		cpu  int
		mode int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 0}, {3, 1}} {
		cpu := core.AllCPUModels[pick.cpu]
		i := pick.cpu*len(modes) + pick.mode
		cells = append(cells, cell{
			name: fmt.Sprintf("fig10/%s/mode%d", cpu, pick.mode),
			sc:   hugePageSession(opt, cpu, modes[pick.mode], core.DeriveSeed("fig10", i)),
		})
	}

	// fig12 cells: per host, (atomic|o3) x (base|-O3 build); i follows the
	// figure's flattening.
	hosts := platform.TableIIPlatforms()
	cpus := []core.CPUModel{core.Atomic, core.O3}
	for _, pick := range []struct{ host, cpu, build int }{{0, 0, 0}, {0, 1, 1}, {1, 0, 0}} {
		i := pick.host*4 + pick.cpu*2 + pick.build
		sc := core.SessionConfig{
			Guest: core.GuestConfig{CPU: cpus[pick.cpu], Mode: core.SE,
				Workload: "water_nsquared", Scale: parsecRepScale(opt),
				Seed: core.DeriveSeed("fig12", i)},
			Host: hosts[pick.host],
		}
		if pick.build == 1 {
			sc.HostCode = hostmodel.Config{SizeFactor: 0.97}
		}
		cells = append(cells, cell{
			name: fmt.Sprintf("fig12/%s/%s/build%d", hosts[pick.host].Name, cpus[pick.cpu], pick.build),
			sc:   sc,
		})
	}

	// fig13 cells: lowest frequency, the 3.1GHz normalization base, and
	// Turbo Boost.
	freqs := []float64{1.2, 1.6, 2.1, 2.6, 3.1, 4.1}
	for _, fi := range []int{0, 4, 5} {
		host := platform.IntelXeon()
		host.FreqGHz = freqs[fi]
		cells = append(cells, cell{
			name: fmt.Sprintf("fig13/%.1fGHz", freqs[fi]),
			sc: core.SessionConfig{
				Guest: core.GuestConfig{CPU: core.Timing, Mode: core.SE,
					Workload: "water_nsquared", Scale: parsecRepScale(opt),
					Seed: core.DeriveSeed("fig13", fi)},
				Host: host,
			},
		})
	}
	return cells
}

// TestSampledFiguresError holds the documented sampledErrorBoundPct: for a
// cross-figure set of sweep cells, the SimPoint extrapolation of modeled
// host seconds must land within the bound of the full co-simulation.
func TestSampledFiguresError(t *testing.T) {
	ResetCaches()
	defer ResetCaches()
	full, err := Options{Quick: true, Jobs: 1}.withRunner()
	if err != nil {
		t.Fatal(err)
	}
	sampled := full
	sampled.SimPoint = true
	worst := 0.0
	for _, c := range sampledErrorCells() {
		want, err := sessionSeconds(full, c.sc)
		if err != nil {
			t.Fatalf("%s: full: %v", c.name, err)
		}
		got, err := sessionSeconds(sampled, c.sc)
		if err != nil {
			t.Fatalf("%s: sampled: %v", c.name, err)
		}
		errPct := 100 * math.Abs(got-want) / want
		if errPct > worst {
			worst = errPct
		}
		if errPct > sampledErrorBoundPct {
			t.Errorf("%s: sampled %.6g vs full %.6g — error %.1f%% exceeds the documented %.0f%% bound",
				c.name, got, want, errPct, sampledErrorBoundPct)
		}
	}
	t.Logf("worst per-cell sampled error %.1f%% (documented bound %.0f%%)", worst, sampledErrorBoundPct)
}

// TestGoldenSampledReports pins the sampled quick reports of fig10 and
// fig13 to fixtures, and requires the rendering to be byte-identical at
// Jobs=1 and Jobs=4 — sampling must not cost the harness its determinism
// guarantee. Regenerate alongside the full goldens:
//
//	go test ./internal/experiments -run TestGoldenSampledReports -update-golden
func TestGoldenSampledReports(t *testing.T) {
	for _, id := range []string{"fig10", "fig13"} {
		t.Run(id, func(t *testing.T) {
			path := filepath.Join("testdata", id+"_quick_sampled.golden")
			var j1 string
			for _, jobs := range []int{1, 4} {
				ResetCaches()
				res, err := Run(id, Options{Quick: true, Jobs: jobs, SimPoint: true})
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				got := res.Render()
				if jobs == 1 {
					j1 = got
					continue
				}
				if got != j1 {
					t.Fatalf("%s sampled report differs between Jobs=1 and Jobs=4:\n--- j1 ---\n%s\n--- j4 ---\n%s",
						id, j1, got)
				}
			}
			if *updateGolden {
				if err := os.WriteFile(path, []byte(j1), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if j1 != string(want) {
				t.Errorf("%s sampled quick report drifted from golden fixture:\n--- got ---\n%s\n--- want ---\n%s",
					id, j1, want)
			}
		})
	}
	ResetCaches()
}
