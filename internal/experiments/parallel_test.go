package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"gem5prof/internal/core"
)

// TestRunAllOrderAndBound checks the submit/collect primitive: results come
// back in index order regardless of completion order, the pool admits at
// most Workers() concurrent cells, and the lowest failing index wins.
func TestRunAllOrderAndBound(t *testing.T) {
	r := NewRunner(3)
	if r.Workers() != 3 {
		t.Fatalf("workers = %d", r.Workers())
	}
	var inFlight, maxInFlight atomic.Int64
	got, err := runAll(r, 64, func(i int) (int, error) {
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		defer inFlight.Add(-1)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if m := maxInFlight.Load(); m > 3 {
		t.Fatalf("pool admitted %d concurrent cells, want <= 3", m)
	}

	_, err = runAll(r, 8, func(i int) (int, error) {
		if i >= 4 {
			return 0, fmt.Errorf("cell %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "cell 4 failed" {
		t.Fatalf("err = %v, want lowest failing cell", err)
	}

	// nil runner runs inline.
	got, err = runAll(nil, 3, func(i int) (int, error) { return i, nil })
	if err != nil || len(got) != 3 {
		t.Fatalf("inline runAll: %v %v", got, err)
	}
}

// TestRunManyOrder checks that RunMany yields outcomes in ids order even
// though the experiments complete in arbitrary order, and that unknown ids
// surface as per-outcome errors.
func TestRunManyOrder(t *testing.T) {
	ids := []string{"table2", "nope", "table1"}
	var got []string
	var errs int
	for oc := range RunMany(ids, Options{Quick: true, Jobs: 2}) {
		got = append(got, oc.ID)
		if oc.Err != nil {
			errs++
			if oc.ID != "nope" {
				t.Errorf("unexpected error for %s: %v", oc.ID, oc.Err)
			}
		}
	}
	if strings.Join(got, ",") != "table2,nope,table1" {
		t.Fatalf("outcome order = %v", got)
	}
	if errs != 1 {
		t.Fatalf("errs = %d", errs)
	}
}

// TestDeriveSeedStable pins the seed-derivation contract: seeds depend only
// on (experiment id, cell index), are positive, and differ across cells.
func TestDeriveSeedStable(t *testing.T) {
	a := core.DeriveSeed("fig02", 3)
	if a != core.DeriveSeed("fig02", 3) {
		t.Fatal("seed not stable")
	}
	if a <= 0 {
		t.Fatalf("seed %d not positive", a)
	}
	if a == core.DeriveSeed("fig02", 4) || a == core.DeriveSeed("fig03", 3) {
		t.Fatal("seed collision across cells")
	}
}

// renderWithJobs regenerates one experiment from a cold cache under the
// given worker count and returns the rendered report.
func renderWithJobs(t *testing.T, id string, jobs int) string {
	t.Helper()
	ResetCaches()
	res, err := Run(id, Options{Quick: true, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return res.Render()
}

// TestParallelDeterminism is the harness's core guarantee: running a
// multi-run experiment with -j 1 and -j 8 renders byte-identical output.
// fig02 exercises the shared Top-Down measurement set (11 cells), ablations
// the flattened probe cells including the calendar-queue run.
func TestParallelDeterminism(t *testing.T) {
	for _, id := range []string{"fig02", "ablations"} {
		seq := renderWithJobs(t, id, 1)
		par := renderWithJobs(t, id, 8)
		if seq != par {
			t.Errorf("%s: -j 1 and -j 8 output differs:\n--- j1 ---\n%s\n--- j8 ---\n%s", id, seq, par)
		}
	}
	// Leave a cold cache for whichever test runs next.
	ResetCaches()
}

// TestUnusableCkptCacheDirFails checks that a checkpoint cache directory
// that cannot be created (a path under a regular file) fails every
// requested experiment instead of silently running uncached.
func TestUnusableCkptCacheDirFails(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opt := Options{Quick: true, Jobs: 1, CkptCacheDir: filepath.Join(file, "cache")}
	if _, err := Run("table1", opt); err == nil {
		t.Error("Run accepted an unusable -ckpt-cache-dir")
	}
	n := 0
	for oc := range RunMany([]string{"table1", "table2"}, opt) {
		n++
		if oc.Err == nil {
			t.Errorf("RunMany %s accepted an unusable -ckpt-cache-dir", oc.ID)
		}
	}
	if n != 2 {
		t.Fatalf("outcomes = %d, want 2", n)
	}
}
