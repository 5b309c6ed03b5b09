package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"gem5prof/internal/platform"
)

// TestShardedDifferential pins that the deprecated GuestConfig.Shards
// changes nothing at the session level: for every cell, co-simulations that
// ask for 2, 4 and 5 shards produce a stat dump — host report, code-model
// summary, guest registry — byte-identical to the ShardSerial run's, and
// their committed-instruction exec traces hash identically. The cells cover
// both queue backends, FS boot, and the dual- and quad-core SE machines.
func TestShardedDifferential(t *testing.T) {
	cells := []struct {
		name     string
		guest    GuestConfig
		pipeline PipelineMode
	}{
		{"o3_xeon", GuestConfig{CPU: O3, Mode: SE, Workload: "water_nsquared", Scale: 24}, PipelineOff},
		{"timing_calendar", GuestConfig{CPU: Timing, Mode: SE, Workload: "dedup", Scale: 2048, CalendarQueue: true}, PipelineOff},
		{"fs_boot_pipelined", GuestConfig{CPU: Timing, Mode: FS, BootExit: true, BootKBs: 8}, PipelineOn},
		{"timing_mt_dual", GuestConfig{CPU: Timing, Mode: SE, Workload: "histogram_mt", Scale: 2048, Cores: 2}, PipelineOff},
		{"timing_mt_quad", GuestConfig{CPU: Timing, Mode: SE, Workload: "dotprod_mt", Scale: 2048, Cores: 4}, PipelineOff},
	}
	host := platform.IntelXeon()
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(shards ShardMode) (string, uint64) {
				g := c.guest
				g.Shards = shards
				var trace strings.Builder
				g.ExecTrace = &trace
				res, err := RunSession(SessionConfig{Guest: g, Host: host, Pipeline: c.pipeline})
				if err != nil {
					t.Fatalf("shards %v: %v", shards, err)
				}
				h := fnv.New64a()
				h.Write([]byte(trace.String()))
				return fullStatDump(res), h.Sum64()
			}
			serial, serialTrace := run(ShardSerial)
			if !strings.Contains(serial, "stat ") || strings.Contains(serial, "Cycles:0") {
				t.Fatalf("suspiciously empty stat dump:\n%.400s", serial)
			}
			for _, shards := range []ShardMode{2, 4, 5} {
				dump, trace := run(shards)
				if dump != serial {
					t.Fatalf("stat dumps differ between serial and shards=%v:\n%s",
						shards, firstDiff(serial, dump))
				}
				if trace != serialTrace {
					t.Fatalf("exec trace hash differs between serial and shards=%v: %x vs %x",
						shards, serialTrace, trace)
				}
			}
		})
	}
}

// TestShardModeResolution pins that every deprecated ShardMode value
// resolves to the one serial event queue, including the configurations
// that once resolved differently (the Atomic CPU, ideal memory, a
// multicore guest): each guest run with a ShardMode reproduces the
// ShardDefault run's result and statistics registry exactly.
func TestShardModeResolution(t *testing.T) {
	base := GuestConfig{CPU: Timing, Mode: SE, Workload: "sieve", Scale: 256}
	cases := []struct {
		name string
		cfg  GuestConfig
	}{
		{"timing", base},
		{"atomic", func() GuestConfig { g := base; g.CPU = Atomic; return g }()},
		{"ideal_memory", func() GuestConfig { g := base; g.IdealMemory = true; return g }()},
		{"dual_core", GuestConfig{CPU: Timing, Mode: SE, Workload: "dotprod_mt", Scale: 64, Cores: 2}},
	}
	dump := func(r *GuestResult) string {
		var b strings.Builder
		fmt.Fprintf(&b, "reason=%q\n", r.ExitReason)
		for _, name := range r.Stats.Names() {
			fmt.Fprintf(&b, "stat %s = %v\n", name, r.Stats.Get(name))
		}
		return b.String()
	}
	for _, c := range cases {
		want, err := RunGuest(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, mode := range []ShardMode{ShardAuto, ShardSerial, 2, 8} {
			g := c.cfg
			g.Shards = mode
			got, err := RunGuest(g)
			if err != nil {
				t.Fatalf("%s shards=%v: %v", c.name, mode, err)
			}
			if got.SimTicks != want.SimTicks || got.Insts != want.Insts ||
				got.HostEvents != want.HostEvents || got.ExitCode != want.ExitCode {
				t.Errorf("%s shards=%v: ticks/insts/events/exit %d/%d/%d/%d, want %d/%d/%d/%d",
					c.name, mode, got.SimTicks, got.Insts, got.HostEvents, got.ExitCode,
					want.SimTicks, want.Insts, want.HostEvents, want.ExitCode)
			}
			if d, w := dump(got), dump(want); d != w {
				t.Errorf("%s shards=%v: statistics differ:\n%s", c.name, mode, firstDiff(w, d))
			}
		}
	}
}
