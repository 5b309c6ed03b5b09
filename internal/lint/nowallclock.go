package lint

import (
	"go/ast"
)

// NoWallClock forbids host entropy inside the simulator core
// (gem5prof/internal/...): wall-clock time, the global math/rand state,
// and the process environment. Every source of variation must flow from
// core.DeriveSeed(experiment, cell) through sim.System's seeded RNG and
// the event queue's Tick domain — that is what makes a run replayable
// bit-for-bit on any host and what the golden fixtures and the
// conformance campaigns rest on.
// Command binaries under cmd/ may time themselves; the model may not.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc: "forbid time.Now/global math-rand/os.Getenv-style host entropy in internal " +
		"simulator packages; seeds must flow from core.DeriveSeed",
	Run: runNoWallClock,
}

// bannedFuncs maps package path -> function name -> what to say.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":       "wall-clock time",
		"Since":     "wall-clock time",
		"Until":     "wall-clock time",
		"After":     "wall-clock timing",
		"Tick":      "wall-clock timing",
		"NewTimer":  "wall-clock timing",
		"NewTicker": "wall-clock timing",
		"Sleep":     "wall-clock timing",
	},
	"os": {
		"Getenv":    "process environment",
		"LookupEnv": "process environment",
		"Environ":   "process environment",
		"Getpid":    "host process identity",
		"Hostname":  "host identity",
	},
}

// randConstructors are the math/rand functions that build an explicitly
// seeded generator and are therefore fine; every other package-level
// rand function draws from the shared, host-seeded global state.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func runNoWallClock(pass *Pass) error {
	if !simScope(pass) {
		return nil
	}
	inspect(pass, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		// Methods on explicitly seeded values (e.g. (*rand.Rand).Int63)
		// are fine; only package-level functions are host entropy.
		if isMethod(fn) {
			return true
		}
		path, name := fn.Pkg().Path(), fn.Name()
		if kind, ok := bannedFuncs[path][name]; ok {
			pass.Reportf(call.Pos(),
				"%s.%s injects %s into the simulator; derive variation from core.DeriveSeed and sim ticks", path, name, kind)
			return true
		}
		if (path == "math/rand" || path == "math/rand/v2") && !randConstructors[name] {
			pass.Reportf(call.Pos(),
				"global %s.%s draws from host-seeded shared state; use a rand.New(rand.NewSource(seed)) fed from core.DeriveSeed", path, name)
		}
		return true
	})
	return nil
}
