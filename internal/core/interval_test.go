package core_test

import (
	"encoding/base64"
	"fmt"
	"strings"
	"testing"

	"gem5prof/internal/core"
	"gem5prof/internal/platform"
	"gem5prof/internal/sim"
)

// TestRunForOverflowClamp pins the satellite bugfix: a delta that would
// wrap the tick counter (including a negative duration cast to Tick) must
// clamp to MaxTick and run the workload out, not schedule into the past.
func TestRunForOverflowClamp(t *testing.T) {
	g, err := core.BuildGuest(core.GuestConfig{
		CPU: core.Atomic, Mode: core.SE, Workload: "sieve", Scale: 1024,
	}, sim.NewNopTracer())
	if err != nil {
		t.Fatal(err)
	}
	// Advance a little so Now() > 0, making Now()+MaxTick wrap.
	if res := g.RunFor(sim.Microsecond); res.Status != sim.ExitLimit {
		t.Fatalf("warm-up run ended early: %+v", res)
	}
	res := g.RunFor(sim.MaxTick) // would wrap unguarded
	if res.Status != sim.ExitRequested {
		t.Fatalf("clamped fast-forward did not run the workload out: %+v", res)
	}
}

// TestRunForNegativeDelta covers the same clamp for a negative duration
// forced into the unsigned Tick type.
func TestRunForNegativeDelta(t *testing.T) {
	g, err := core.BuildGuest(core.GuestConfig{
		CPU: core.Atomic, Mode: core.SE, Workload: "sieve", Scale: 1024,
	}, sim.NewNopTracer())
	if err != nil {
		t.Fatal(err)
	}
	if res := g.RunFor(sim.Microsecond); res.Status != sim.ExitLimit {
		t.Fatalf("warm-up run ended early: %+v", res)
	}
	five := 5 * sim.Microsecond
	neg := -five // -5µs wrapped through the unsigned Tick type
	res := g.RunFor(neg)
	if res.Status != sim.ExitRequested {
		t.Fatalf("negative delta not clamped: %+v", res)
	}
}

// TestRunInsts checks the instruction-budgeted run: it stops after exactly
// the budgeted instruction count with InstBudgetReason, and a budget beyond
// the workload's length falls through to a normal exit.
func TestRunInsts(t *testing.T) {
	g, err := core.BuildGuest(core.GuestConfig{
		CPU: core.Atomic, Mode: core.SE, Workload: "sieve", Scale: 1024,
	}, sim.NewNopTracer())
	if err != nil {
		t.Fatal(err)
	}
	const budget = 500
	res, err := g.RunInsts(budget)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitReason != core.InstBudgetReason {
		t.Fatalf("exit reason %q, want %q", res.ExitReason, core.InstBudgetReason)
	}
	if res.Insts != budget {
		t.Fatalf("committed %d instructions, want exactly %d", res.Insts, budget)
	}
	if !res.ChecksumOK {
		t.Fatal("budget stop must not be reported as a checksum failure")
	}

	// A budget larger than the whole workload: normal exit wins.
	g2, err := core.BuildGuest(core.GuestConfig{
		CPU: core.Atomic, Mode: core.SE, Workload: "sieve", Scale: 1024,
	}, sim.NewNopTracer())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := g2.RunInsts(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ExitReason == core.InstBudgetReason {
		t.Fatal("oversized budget fired before workload exit")
	}
	if !res2.ChecksumOK {
		t.Fatalf("workload checksum failed under budgeted run: %+v", res2)
	}

	if _, err := g.RunInsts(0); err == nil {
		t.Fatal("zero budget accepted")
	}
}

// TestRunIntervalSession exercises the sampled-simulation leg end to end:
// fresh-start and checkpoint-restored intervals must both measure a
// positive modeled time over exactly the budgeted window.
func TestRunIntervalSession(t *testing.T) {
	sc := core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.Timing, Mode: core.SE, Workload: "sieve", Scale: 1024},
		Host:  platform.IntelXeon(),
	}
	iv, err := core.RunIntervalSession(sc, nil, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Insts != 1000 || !iv.Completed {
		t.Fatalf("measured %d instructions (completed=%v), want 1000", iv.Insts, iv.Completed)
	}
	if iv.Seconds <= 0 {
		t.Fatalf("measured window has non-positive modeled time: %g", iv.Seconds)
	}
	if iv.Session == nil || iv.Session.Guest.ExitReason != core.InstBudgetReason {
		t.Fatalf("unexpected session state: %+v", iv.Session)
	}

	// Restored variant: checkpoint with Atomic, measure under Timing.
	data, _ := ffAndCheckpoint(t, "sieve", 1024, 2*sim.Microsecond)
	ck, err := core.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	iv2, err := core.RunIntervalSession(sc, ck, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if iv2.Insts != 1000 || iv2.Seconds <= 0 {
		t.Fatalf("restored interval: insts=%d seconds=%g", iv2.Insts, iv2.Seconds)
	}

	// Determinism: the same interval twice is bit-identical.
	iv3, err := core.RunIntervalSession(sc, ck, 200, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if iv3.Seconds != iv2.Seconds || iv3.Insts != iv2.Insts {
		t.Fatalf("interval not deterministic: %g/%d vs %g/%d",
			iv2.Seconds, iv2.Insts, iv3.Seconds, iv3.Insts)
	}

	// The profiler reads are incompatible with interval measurement.
	bad := sc
	bad.Profile = true
	if _, err := core.RunIntervalSession(bad, nil, 0, 100); err == nil {
		t.Fatal("profiled interval session accepted")
	}
}

// TestRunIntervalSessionExitDuringWarmup: a warmup longer than the whole
// workload must surface as an error, not a zero-length measurement.
func TestRunIntervalSessionExitDuringWarmup(t *testing.T) {
	sc := core.SessionConfig{
		Guest: core.GuestConfig{CPU: core.Atomic, Mode: core.SE, Workload: "sieve", Scale: 1024},
		Host:  platform.IntelXeon(),
	}
	if _, err := core.RunIntervalSession(sc, nil, 1<<40, 100); err == nil {
		t.Fatal("workload exit inside warmup not reported")
	}
}

// validCheckpointJSON returns one real encoded checkpoint for mutation.
func validCheckpointJSON(t *testing.T) []byte {
	t.Helper()
	data, _ := ffAndCheckpoint(t, "sieve", 1024, 2*sim.Microsecond)
	return data
}

// TestCheckpointDecodeFailsClosed is the satellite-bugfix table: every
// class of corruption must produce a clear error from DecodeCheckpoint —
// never a panic and never a checkpoint that would restore partial state.
func TestCheckpointDecodeFailsClosed(t *testing.T) {
	valid := validCheckpointJSON(t)
	if _, err := core.DecodeCheckpoint(valid); err != nil {
		t.Fatalf("control: valid checkpoint rejected: %v", err)
	}

	page := base64.StdEncoding.EncodeToString(make([]byte, 4096))
	shortPage := base64.StdEncoding.EncodeToString(make([]byte, 100))
	doc := func(version int, size uint32, key, payload string) string {
		return fmt.Sprintf(`{"version":%d,"tick":1,"insts":1,"arch":[{"pc":4096}],"mem":{"size":%d,"pages":{%q:%q}}}`,
			version, size, key, payload)
	}
	cases := []struct {
		name string
		data string
	}{
		{"truncated JSON", string(valid[:len(valid)/2])},
		{"empty", ""},
		{"future version", doc(core.CheckpointVersion+1, 1<<20, "0", page)},
		{"zero version", doc(0, 1<<20, "0", page)},
		{"zero memory size", doc(core.CheckpointVersion, 0, "0", page)},
		{"page outside memory", doc(core.CheckpointVersion, 1<<20, "999999", page)},
		{"short page payload", doc(core.CheckpointVersion, 1<<20, "0", shortPage)},
		{"bad base64 payload", doc(core.CheckpointVersion, 1<<20, "0", "!!not-base64!!")},
		{"non-numeric page key", doc(core.CheckpointVersion, 1<<20, "abc", page)},
		{"trailing-garbage page key", doc(core.CheckpointVersion, 1<<20, "7abc", page)},
		{"non-canonical page key", doc(core.CheckpointVersion, 1<<20, "07", page)},
		{"no arch state", `{"version":1,"mem":{"size":1048576,"pages":{}}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := core.DecodeCheckpoint([]byte(tc.data))
			if err == nil {
				t.Fatalf("corruption accepted, got checkpoint %+v", ck)
			}
			if strings.TrimSpace(err.Error()) == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestCheckpointSeedInvariance pins the property the checkpoint cache's key
// derivation relies on: the guest never consumes the system RNG, so two
// runs differing only in Seed take byte-identical checkpoints. If a future
// guest component starts drawing randomness, this fails and the cache key
// must learn a Seed component.
func TestCheckpointSeedInvariance(t *testing.T) {
	take := func(seed int64) []byte {
		g, err := core.BuildGuest(core.GuestConfig{
			CPU: core.Atomic, Mode: core.SE, Workload: "sieve", Scale: 1024, Seed: seed,
		}, sim.NewNopTracer())
		if err != nil {
			t.Fatal(err)
		}
		if res := g.RunFor(2 * sim.Microsecond); res.Status != sim.ExitLimit {
			t.Fatalf("fast-forward ended early: %+v", res)
		}
		ck, err := g.TakeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		data, err := ck.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if string(take(7)) != string(take(99991)) {
		t.Fatal("checkpoint depends on Seed; ckptcache.Key must include it")
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes (seeded with a real checkpoint
// and targeted mutations) to DecodeCheckpoint: it must never panic, and
// anything it accepts must re-encode and restore without error.
func FuzzCheckpointDecode(f *testing.F) {
	g, err := core.BuildGuest(core.GuestConfig{
		CPU: core.Atomic, Mode: core.SE, Workload: "sieve", Scale: 1024,
	}, sim.NewNopTracer())
	if err != nil {
		f.Fatal(err)
	}
	if res := g.RunFor(2 * sim.Microsecond); res.Status != sim.ExitLimit {
		f.Fatalf("fast-forward ended early: %+v", res)
	}
	ck, err := g.TakeCheckpoint()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := ck.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(strings.Replace(string(valid), `"version": 1`, `"version": 2`, 1)))
	f.Add([]byte(`{"version":1,"arch":[{}],"mem":{"size":4096,"pages":{"0":"AAAA"}}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := core.DecodeCheckpoint(data)
		if err != nil {
			return // rejected cleanly: fine
		}
		// Accepted documents must be fully usable.
		if _, err := ck.Encode(); err != nil {
			t.Fatalf("accepted checkpoint fails to re-encode: %v", err)
		}
		if _, err := core.RestoreGuest(core.GuestConfig{
			CPU: core.Atomic, Cores: len(ck.Arch), Mode: ck.Mode,
			Workload: ck.Workload, Scale: ck.Scale,
		}, ck, sim.NewNopTracer()); err != nil {
			// Restore may reject for config reasons (e.g. unknown
			// workload), but must not panic.
			t.Logf("restore rejected accepted checkpoint: %v", err)
		}
	})
}
