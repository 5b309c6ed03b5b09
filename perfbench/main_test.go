package main

import (
	"io"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/uarch"
)

// testCell is the cheapest guest cell; its reference digest is recorded.
func testCell(t *testing.T) (cell, reference) {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range guestCells(7) {
		if c.name == "o3-fs-boot-exit" {
			return c, ref
		}
	}
	t.Fatal("no o3-fs-boot-exit cell")
	return cell{}, ref
}

// The oracle must reject a result whose digest differs from the reference
// by a single character, and accept the unperturbed one, so that passing
// it is not vacuous.
func TestPerturbedDigestCountsAsFailure(t *testing.T) {
	c, ref := testCell(t)
	want := ref.Cells[c.name].Full
	perturbed := []byte(want)
	perturbed[len(perturbed)-1] ^= 1
	ref.Cells[c.name] = cellRef{Guest: string(perturbed), Full: string(perturbed)}

	b := &bench{ref: ref, workload: "guest-batch", seed: 7, log: io.Discard}
	if insts := b.runCell(c); insts != 0 || b.failed != 1 || b.attempted != 1 {
		t.Fatalf("perturbed digest: failed %d of %d (insts %d), want 1 of 1", b.failed, b.attempted, insts)
	}
	ref.Cells[c.name] = cellRef{Guest: want, Full: want}
	if insts := b.runCell(c); insts == 0 || b.failed != 1 || b.attempted != 2 {
		t.Fatalf("reference digest: failed %d of %d (insts %d), want 1 of 2", b.failed, b.attempted, insts)
	}
}

// A panic inside a cell is recovered and counted as a failure.
func TestRecoveredPanicCountsAsFailure(t *testing.T) {
	_, err := check("", func() (*core.GuestResult, *uarch.Report, error) { panic("boom") })
	if err == nil {
		t.Fatal("panicking cell passed the oracle")
	}
	b := &bench{log: io.Discard}
	b.tally("panicking cell", err)
	if b.failed != 1 || b.attempted != 1 || b.failFrac() != 1 {
		t.Fatalf("failed %d of %d, fail_frac %v; want 1 of 1", b.failed, b.attempted, b.failFrac())
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
