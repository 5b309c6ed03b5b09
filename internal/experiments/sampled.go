package experiments

import (
	"fmt"

	"gem5prof/internal/core"
	"gem5prof/internal/simpoint"
)

// sampledErrorBoundPct is the documented sampled-vs-full error bound for
// the per-cell modeled seconds of the figures that opt into sampling. The
// quick-mode workloads are only a few tens of thousands of instructions,
// so each phase is measured over a short window and the bound is looser
// than SimPoint's published low-single-digit CPI error on SPEC-length
// runs (measured across every cell of figs 10/12/13: worst 23.7%, mean
// 8.3% — the worst cells are the Atomic-target M1 rows, whose windows
// are the shortest in host instructions and so carry the largest
// residual cold-start fraction). TestSampledFiguresError holds this
// bound.
const sampledErrorBoundPct = 25.0

// simpointConfig is the harness's sampling parameterization. The interval
// and warmup lengths trade error against speed: warmup only needs to
// re-warm the guest's own caches, because the sampler keeps the modeled
// host machine warm across windows (core.IntervalRunner) and projects the
// residual transient out (simpoint.steadyRate). These defaults keep the
// quick-suite per-cell error inside sampledErrorBoundPct while clearing
// the >=10x wall-clock target (10.8x measured at -j 1 on a 1-core Xeon,
// 2026-08-08; see DESIGN.md §12).
func (o Options) simpointConfig() simpoint.Config {
	cfg := simpoint.Config{
		// WarmupInsts 1 means effectively no warmup: the runner's
		// machine reuse plus the steady-rate extrapolation replace it
		// (Config.WarmupInsts == 0 would select the package default).
		IntervalInsts: 500,
		WarmupInsts:   1,
		MaxK:          3,
		Cache:         o.ckptCache,
	}
	if o.SimPointInterval != 0 {
		cfg.IntervalInsts = o.SimPointInterval
		cfg.WarmupInsts = 0 // re-derive from the interval
	}
	return cfg
}

// sessionSeconds runs one sweep cell and returns its modeled host seconds:
// the full co-simulation normally, or the SimPoint extrapolation when the
// harness runs with -simpoint. Only figures whose cells consume nothing
// but SimSeconds() may call this — figures needing full Top-Down detail
// (fig11) always run full.
func sessionSeconds(opt Options, sc core.SessionConfig) (float64, error) {
	if !opt.SimPoint {
		r, err := core.RunSession(sc)
		if err != nil {
			return 0, err
		}
		return r.SimSeconds(), nil
	}
	res, err := simpoint.RunSampled(sc, opt.simpointConfig())
	if err != nil {
		return 0, err
	}
	return res.Seconds, nil
}

// sampledNote documents a figure's sampled provenance in its rendered
// output, so a sampled report is never mistaken for a full one.
func sampledNote(opt Options, res *Result) {
	if !opt.SimPoint {
		return
	}
	cfg := opt.simpointConfig()
	res.Notes = append(res.Notes, fmt.Sprintf(
		"sampled via simpoint (interval %d insts, warmup %d, <=%d phases); documented error bound %.0f%% vs full simulation",
		cfg.IntervalInsts, cfg.WarmupInsts, cfg.MaxK, sampledErrorBoundPct))
}
