package experiments

import (
	"math"
	"strings"
	"testing"

	"gem5prof/internal/platform"
	"gem5prof/internal/uarch"
)

var quickOpt = Options{Quick: true}

func TestIDsComplete(t *testing.T) {
	want := []string{
		"ablations",
		"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
		"fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig15", "fig16", "table1", "table2",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("ids = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
}

// TestHostConfigsValidate checks that every host the experiments build
// passes uarch.Config.Validate: the Table II platforms and FireSim base,
// each contended at 2, 4 and 8 processes with and without SMT, and every
// Fig. 14 FireSim geometry.
func TestHostConfigsValidate(t *testing.T) {
	hosts := append(platform.TableIIPlatforms(), platform.FireSimBase())
	var cfgs []uarch.Config
	for _, h := range hosts {
		cfgs = append(cfgs, h)
		for _, procs := range []int{2, 4, 8} {
			for _, smt := range []bool{false, true} {
				cfgs = append(cfgs, platform.Contend(h, platform.Scenario{Procs: procs, SMT: smt}))
			}
		}
	}
	cfgs = append(cfgs, fig14Geometries()...)
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
			continue
		}
		uarch.NewMachine(cfg)
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("fig99", quickOpt); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTables(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		res, err := Run(id, quickOpt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Notes) == 0 {
			t.Fatalf("%s empty", id)
		}
		if !strings.Contains(res.Render(), "===") {
			t.Fatal("render malformed")
		}
	}
}

// TestTopdownFigures runs the shared Fig. 2-6 set once (cached) and checks
// the paper's qualitative claims hold in quick mode.
func TestTopdownFigures(t *testing.T) {
	f2, err := Run("fig02", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Rows) != 11 {
		t.Fatalf("fig02 rows = %d", len(f2.Rows))
	}
	// Every gem5 config: front-end bound above back-end bound.
	for _, row := range f2.Rows[:8] {
		fe, be := row.Values[1], row.Values[3]
		if fe <= be {
			t.Errorf("%s: FE %.1f <= BE %.1f", row.Label, fe, be)
		}
	}
	// mcf: heavily back-end bound, lowest retiring.
	mcf := f2.Rows[10]
	if mcf.Values[3] < 40 {
		t.Errorf("mcf BE = %.1f, want heavy", mcf.Values[3])
	}

	f6, err := Run("fig06", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	// gem5 DSB coverage below x264's.
	var gem5Max float64
	for _, row := range f6.Rows[:8] {
		if row.Values[0] > gem5Max {
			gem5Max = row.Values[0]
		}
	}
	x264 := f6.Rows[8].Values[0]
	if gem5Max >= x264 {
		t.Errorf("gem5 DSB coverage (max %.1f) should be below x264's (%.1f)", gem5Max, x264)
	}

	f4, err := Run("fig04", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown branches grow with CPU detail (O3 vs Atomic, PARSEC rows).
	byLabel := map[string]Row{}
	for _, r := range f4.Rows {
		byLabel[r.Label] = r
	}
	if byLabel["O3_PARSEC"].Values[4] <= byLabel["ATOMIC_PARSEC"].Values[4] {
		t.Error("unknown-branch share should grow with model detail")
	}

	f3, err := Run("fig03", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	checkFig03Shape(t, f3)
	f5, err := Run("fig05", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	// MITE dominates gem5's bandwidth-bound cycles.
	for _, row := range f5.Rows[:8] {
		if row.Values[2] < 50 {
			t.Errorf("%s MITE share %.0f%%, want dominant", row.Label, row.Values[2])
		}
	}
}

// checkFig03Shape asserts the paper's Fig. 3 claims on its rows (columns:
// fe-latency, fe-bandwidth): per workload, the detailed models (O3, Minor)
// are more front-end latency-bound and less bandwidth-bound than the simple
// ones (Timing, Atomic); a detailed model is latency- over bandwidth-bound;
// and every gem5 row is more bandwidth-bound than every SPEC row.
func checkFig03Shape(t *testing.T, f3 *Result) {
	t.Helper()
	if len(f3.Rows) != 11 {
		t.Fatalf("fig03 rows = %d, want 8 gem5 + 3 SPEC", len(f3.Rows))
	}
	byLabel := map[string]Row{}
	for _, r := range f3.Rows {
		byLabel[r.Label] = r
	}
	get := func(label string) Row {
		r, ok := byLabel[label]
		if !ok {
			t.Fatalf("fig03: no row %q", label)
		}
		return r
	}
	detailed, simple := []string{"O3", "MINOR"}, []string{"TIMING", "ATOMIC"}
	for _, wl := range []string{"BOOT_EXIT", "PARSEC"} {
		minDetLat, maxDetBW := math.Inf(1), math.Inf(-1)
		for _, m := range detailed {
			r := get(m + "_" + wl)
			lat, bw := r.Values[0], r.Values[1]
			minDetLat, maxDetBW = math.Min(minDetLat, lat), math.Max(maxDetBW, bw)
			if lat <= bw {
				t.Errorf("fig03 %s: FE-latency %.2f <= FE-bandwidth %.2f", r.Label, lat, bw)
			}
		}
		maxSimLat, minSimBW := math.Inf(-1), math.Inf(1)
		for _, m := range simple {
			r := get(m + "_" + wl)
			maxSimLat, minSimBW = math.Max(maxSimLat, r.Values[0]), math.Min(minSimBW, r.Values[1])
		}
		if minDetLat <= maxSimLat {
			t.Errorf("fig03 %s: O3/Minor FE-latency (min %.2f) not above Timing/Atomic (max %.2f)", wl, minDetLat, maxSimLat)
		}
		if maxDetBW >= minSimBW {
			t.Errorf("fig03 %s: O3/Minor FE-bandwidth (max %.2f) not below Timing/Atomic (min %.2f)", wl, maxDetBW, minSimBW)
		}
	}
	minGem5BW, maxSPECBW := math.Inf(1), math.Inf(-1)
	for _, r := range f3.Rows {
		if strings.HasSuffix(r.Label, "_BOOT_EXIT") || strings.HasSuffix(r.Label, "_PARSEC") {
			minGem5BW = math.Min(minGem5BW, r.Values[1])
		} else {
			maxSPECBW = math.Max(maxSPECBW, r.Values[1])
		}
	}
	if minGem5BW <= maxSPECBW {
		t.Errorf("fig03: gem5 FE-bandwidth (min %.2f) not above SPEC (max %.3f)", minGem5BW, maxSPECBW)
	}
}

func TestFig13FrequencyScaling(t *testing.T) {
	res, err := Run("fig13", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Normalized time must decrease monotonically with frequency and the
	// 1.2GHz point must be roughly linear (between 2x and 2.6x).
	prev := res.Rows[0].Values[0]
	for _, row := range res.Rows[1:] {
		if row.Values[0] >= prev {
			t.Fatalf("time not decreasing with frequency: %+v", res.Rows)
		}
		prev = row.Values[0]
	}
	slow := res.Rows[0].Values[0]
	if slow < 1.8 || slow > 2.7 {
		t.Fatalf("1.2GHz slowdown %.2fx outside the near-linear band", slow)
	}
}

func TestFig10HugePages(t *testing.T) {
	res, err := Run("fig10", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Huge pages help the detailed models.
	o3 := res.Rows[3]
	if o3.Values[0] <= 0 && o3.Values[1] <= 0 {
		t.Fatalf("huge pages should help O3: %+v", o3)
	}
}

func TestFig15Profile(t *testing.T) {
	res, err := Run("fig15", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Function counts grow with CPU model detail.
	prev := 0.0
	for _, row := range res.Rows {
		called := row.Values[3]
		if called <= prev {
			t.Fatalf("functions-called not increasing: %+v", res.Rows)
		}
		prev = called
		// CDF sanity: top50 >= top10 >= hottest.
		if !(row.Values[2] >= row.Values[1] && row.Values[1] >= row.Values[0]) {
			t.Fatalf("CDF not monotone: %+v", row)
		}
	}
}

func TestAblationsExperiment(t *testing.T) {
	res, err := Run("ablations", quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byLabel := map[string]float64{}
	for _, r := range res.Rows {
		byLabel[r.Label] = r.Values[0]
	}
	if byLabel["baseline"] != 1 {
		t.Fatal("baseline not normalized")
	}
	if byLabel["A2 non-VIPT 128KB L1I"] >= 1 {
		t.Fatalf("a big L1I should be faster: %v", byLabel)
	}
	if byLabel["A3 no MLP overlap"] <= 1 {
		t.Fatalf("removing MLP overlap should be slower: %v", byLabel)
	}
	if a4 := byLabel["A4 packed layout"]; a4 < 0.90 || a4 > 1.05 {
		t.Fatalf("packed layout should be a small effect on total time: %v", byLabel)
	}
	a5 := byLabel["A5 calendar event queue"]
	if a5 < 0.99 || a5 > 1.01 {
		t.Fatalf("A5 must not change modeled time: %v", a5)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4}); g != 2 {
		t.Fatalf("geomean = %v", g)
	}
	if geomean(nil) != 0 || geomean([]float64{0, 1}) != 0 {
		t.Fatal("degenerate geomean wrong")
	}
}
