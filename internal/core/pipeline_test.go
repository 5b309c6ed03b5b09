package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"gem5prof/internal/platform"
)

// fullStatDump renders every modeled statistic of a session at full float64
// precision: the complete host report struct (Top-Down cycle components,
// miss rates, occupancy, DRAM traffic — %v prints floats with the shortest
// round-trippable representation, so a single ULP of drift shows), the
// code-model summary, and the entire guest stats registry. Any divergence
// between two runs makes the dumps byte-unequal.
func fullStatDump(r *SessionResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "host %+v\n", r.Host)
	fmt.Fprintf(&b, "code text=%d funcs=%d called=%d\n", r.TextBytes, r.NumFuncs, r.CalledFuncs)
	fmt.Fprintf(&b, "guest ticks=%d insts=%d exit=%d reason=%q events=%d checksum=%v\n",
		r.Guest.SimTicks, r.Guest.Insts, r.Guest.ExitCode, r.Guest.ExitReason,
		r.Guest.HostEvents, r.Guest.ChecksumOK)
	for _, name := range r.Guest.Stats.Names() {
		fmt.Fprintf(&b, "stat %s = %v\n", name, r.Guest.Stats.Get(name))
	}
	return b.String()
}

// TestPipelineDifferential pins that the deprecated SessionConfig.Pipeline
// changes nothing: for every workload × host-config cell, a session asking
// for PipelineOn produces a stat dump byte-identical to one asking for
// PipelineOff. Both run the guest, the code model and the Machine on one
// goroutine, so the dumps also prove that two co-simulations of one cell
// agree bit for bit.
func TestPipelineDifferential(t *testing.T) {
	cells := []struct {
		workload string
		scale    int
		cpu      CPUModel
		host     string
	}{
		{"water_nsquared", 24, O3, "Intel_Xeon"},
		{"water_nsquared", 24, O3, "M1_Pro"},
		{"dedup", 2048, Timing, "Intel_Xeon"},
		{"dedup", 2048, Timing, "M1_Pro"},
	}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("%s_%s_%s", c.workload, c.cpu, c.host), func(t *testing.T) {
			host, err := platform.ByName(c.host)
			if err != nil {
				t.Fatal(err)
			}
			run := func(mode PipelineMode) string {
				res, err := RunSession(SessionConfig{
					Guest: GuestConfig{
						CPU: c.cpu, Mode: SE,
						Workload: c.workload, Scale: c.scale,
					},
					Host:     host,
					Pipeline: mode,
				})
				if err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				return fullStatDump(res)
			}
			off := run(PipelineOff)
			on := run(PipelineOn)
			if off != on {
				t.Fatalf("stat dumps differ between Pipeline off and on:\n%s",
					firstDiff(off, on))
			}
			// Guard against a vacuous pass: the dump must actually carry
			// modeled activity.
			if !strings.Contains(off, "stat ") || strings.Contains(off, "Cycles:0") {
				t.Fatalf("suspiciously empty stat dump:\n%.400s", off)
			}
		})
	}
}

// firstDiff returns the first differing line pair of two dumps.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  first:  %s\n  second: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("dumps differ in length: %d vs %d lines", len(al), len(bl))
}

// TestPipelineModeResolution pins that every deprecated PipelineMode value
// resolves to the one serial co-simulation, with and without the function
// profiler: each (mode, profile) session of a cell reproduces the
// PipelineAuto session's stat dump, and the profiler is attached exactly
// when Profile is set.
func TestPipelineModeResolution(t *testing.T) {
	host := platform.IntelXeon()
	guest := GuestConfig{CPU: Timing, Mode: SE, Workload: "sieve", Scale: 512}
	for _, profile := range []bool{false, true} {
		var want string
		for _, mode := range []PipelineMode{PipelineAuto, PipelineOff, PipelineOn} {
			res, err := RunSession(SessionConfig{
				Guest: guest, Host: host, Profile: profile, Pipeline: mode,
			})
			if err != nil {
				t.Fatalf("mode=%v profile=%v: %v", mode, profile, err)
			}
			if (res.Prof != nil) != profile {
				t.Errorf("mode=%v profile=%v: profiler attached = %v", mode, profile, res.Prof != nil)
			}
			dump := fullStatDump(res)
			if mode == PipelineAuto {
				want = dump
				continue
			}
			if dump != want {
				t.Errorf("mode=%v profile=%v: stat dump differs from PipelineAuto:\n%s",
					mode, profile, firstDiff(want, dump))
			}
		}
	}
}

// TestPipelineErrorPath checks that a failing session surfaces its error
// and that neither a failing nor a completed session leaves a goroutine
// behind.
func TestPipelineErrorPath(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := RunSession(SessionConfig{
		Guest:    GuestConfig{CPU: O3, Mode: SE, Workload: "no_such_workload"},
		Host:     platform.IntelXeon(),
		Pipeline: PipelineOn,
	})
	if err == nil {
		t.Fatal("expected error for unknown workload")
	}
	if _, err := RunSession(SessionConfig{
		Guest:    GuestConfig{CPU: Timing, Mode: SE, Workload: "sieve", Scale: 512},
		Host:     platform.IntelXeon(),
		Pipeline: PipelineOn,
	}); err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}
