package lint

// The two interprocedural analyzers. All real work happens in the
// shared engine (interproc.go); each analyzer filters the memoized
// IPResult by finding kind and renders messages, so the ordinary
// per-analyzer suppression machinery (//lint:allow detflow …) applies at
// the reported position.

// Detflow reports host nondeterminism — map iteration order, wall-clock
// time, global rand, environment reads, formatted pointers — flowing
// interprocedurally into a determinism-critical sink: stat registration,
// the trace arena, checkpoint encoders, or report writers. It subsumes
// the cross-call blind spot of detmap and nowallclock: taint survives any
// number of hops through helpers, closures, and struct fields within the
// module.
var Detflow = &Analyzer{
	Name: "detflow",
	Doc:  "nondeterministic value (map order, wall clock, rand, env, %p) reaches a stat, trace, checkpoint, or report sink",
	Run:  runDetflow,
}

// FloatOrder reports float accumulation whose iteration order is not
// provably deterministic — the Fig. 15 bug class (a map-range float sum
// made the Frac column host-dependent). Unlike detmap it ignores
// //lint:deterministic: that annotation claims the loop commutes, which
// float addition does not. Only //lint:allow floatorder waives it.
var FloatOrder = &Analyzer{
	Name: "floatorder",
	Doc:  "float accumulation ordered by map iteration; float addition does not commute",
	Run:  runFloatOrder,
}

func runDetflow(p *Pass) error {
	for _, f := range ipFindings(p) {
		if f.Kind != "sink" {
			continue
		}
		p.Reportf(f.Pos, "value derived from %s reaches %s (%s); derive it from sim time/seed or sort before emitting",
			classNoun(f.Class), sinkNoun(f.Sink), f.Detail)
	}
	return nil
}

func runFloatOrder(p *Pass) error {
	for _, f := range ipFindings(p) {
		if f.Kind != "floatsum" {
			continue
		}
		detail := ""
		if f.Detail != "" {
			detail = " (via " + f.Detail + ")"
		}
		p.Reportf(f.Pos, "float accumulation ordered by map iteration%s; float addition does not commute, sort the keys first", detail)
	}
	return nil
}

// ipFindings returns the package's engine findings, or nil when the
// driver provided no engine (p.IP unset) or the package is out of scope.
func ipFindings(p *Pass) []IPFinding {
	if p.IP == nil || !pkgScope(p) {
		return nil
	}
	return p.IP.Result().Findings
}
