package experiments

import (
	"runtime"
	"strings"
	"sync"

	"gem5prof/internal/simpoint"
)

// Runner executes the independent simulation runs of an experiment — and,
// via RunMany, whole experiments — on a bounded worker pool. Every run
// constructs its own core.Session/sim.System, so runs share no mutable
// state; determinism comes from collecting results by cell index and from
// deriving per-run seeds from (experiment id, cell index) rather than any
// shared RNG (core.DeriveSeed). A parallel schedule is therefore
// bit-identical to the sequential one: `-j 8` renders the same bytes as
// `-j 1`.
type Runner struct {
	workers int
	sem     chan struct{}
}

// NewRunner returns a runner whose pool admits n concurrent simulation runs;
// n <= 0 uses GOMAXPROCS.
func NewRunner(n int) *Runner {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: n, sem: make(chan struct{}, n)}
}

// Workers returns the pool size.
func (r *Runner) Workers() int { return r.workers }

// submit runs fn on the pool once a worker slot frees up. Only leaf
// simulation runs hold slots — experiment coordinators (RunMany) never do,
// which is what lets the nested fan-out proceed without deadlocking the
// pool at -j 1. A slot admits one session, and a session runs on its
// worker goroutine alone, so the harness runs at most Jobs simulation
// goroutines no matter how many experiments are in flight.
func (r *Runner) submit(wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.sem <- struct{}{}
		defer func() { <-r.sem }()
		fn()
	}()
}

// runAll executes fn(i) for every cell i in [0,n) on the runner's pool and
// returns the results in index order, so the collected slice is identical to
// what the old sequential loops produced no matter how the pool interleaves
// the runs. On failure the lowest failing index wins — again deterministic.
// A nil runner runs inline (sequential, no goroutines).
func runAll[T any](r *Runner, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if r == nil {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		r.submit(&wg, func() {
			out[i], errs[i] = fn(i)
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Outcome is one experiment's result from RunMany.
type Outcome struct {
	ID  string
	Res *Result
	Err error
}

// RunMany regenerates the given experiments concurrently — every experiment
// coordinator starts immediately, and the simulation runs inside all of them
// share one pool bounded by opt.Jobs — and returns a channel yielding one
// Outcome per id in ids order (not completion order), as each becomes
// available. Rendered output is byte-identical for any worker count.
func RunMany(ids []string, opt Options) <-chan Outcome {
	opt, optErr := opt.withRunner()
	pending := make([]chan Outcome, len(ids))
	for i, id := range ids {
		pending[i] = make(chan Outcome, 1)
		i, id := i, strings.TrimSpace(id)
		go func() {
			if optErr != nil {
				pending[i] <- Outcome{ID: id, Err: optErr}
				return
			}
			res, err := Run(id, opt)
			pending[i] <- Outcome{ID: id, Res: res, Err: err}
		}()
	}
	out := make(chan Outcome)
	go func() {
		for _, c := range pending {
			out <- <-c
		}
		close(out)
	}()
	return out
}

// ResetCaches drops the per-process measurement caches (the shared Fig. 2-6
// Top-Down set and the simpoint analysis memo). Benchmarks and determinism
// tests call it so that repeated regenerations re-measure instead of
// replaying the cache.
func ResetCaches() {
	tdMu.Lock()
	defer tdMu.Unlock()
	tdCache = map[bool]*tdSet{}
	simpoint.ResetMemo()
}
