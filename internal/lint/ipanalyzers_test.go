package lint_test

import (
	"testing"

	"gem5prof/internal/lint"
	"gem5prof/internal/lint/linttest"
)

// The meta-fixtures launder each taint class through 2–3 call hops
// (helper, closure, interface method); the *neg twins repeat the same
// call shapes with deterministic inputs and must stay silent — they
// pin the precision side of the summaries, not just the recall side.

func TestDetflow(t *testing.T) {
	linttest.Run(t, lint.Detflow,
		"gem5prof/internal/ipflow",
		"gem5prof/internal/ipflowneg")
}

func TestFloatOrder(t *testing.T) {
	linttest.Run(t, lint.FloatOrder,
		"gem5prof/internal/fpsum",
		"gem5prof/internal/fpsumneg")
}
