package conformance

import (
	"fmt"
	"strings"
	"testing"

	"gem5prof/internal/isa"
)

// diffRerun runs prog on one model twice, the second time with a commit
// observer attached, and returns a description of every field that differs
// ("" when identical). The comparison covers the full Result — architectural
// end state, retired count, memory checksum, trace hash, final ticks — plus
// a rendered dump of the statistics registry, so a single diverging counter
// fails it. The observer must also see exactly the retired instructions.
func diffRerun(model string, prog *isa.Program, caches bool) (string, error) {
	first, err := RunModel(model, prog, caches, nil)
	if err != nil {
		return "", fmt.Errorf("first run: %w", err)
	}
	var observed uint64
	again, err := RunModel(model, prog, caches, func(uint32, isa.Inst) { observed++ })
	if err != nil {
		return "", fmt.Errorf("observed rerun: %w", err)
	}
	var diffs []string
	add := func(field string, got, want interface{}) {
		diffs = append(diffs, fmt.Sprintf("%s: rerun got %v, first run %v", field, got, want))
	}
	if again.ExitCode != first.ExitCode {
		add("exit", again.ExitCode, first.ExitCode)
	}
	if again.Retired != first.Retired {
		add("retired", again.Retired, first.Retired)
	}
	if observed != again.Retired {
		add("observed commits", observed, again.Retired)
	}
	if again.MemSum != first.MemSum {
		add("mem", again.MemSum, first.MemSum)
	}
	if again.TraceHash != first.TraceHash {
		add("trace", again.TraceHash, first.TraceHash)
	}
	if again.Ticks != first.Ticks {
		add("ticks", again.Ticks, first.Ticks)
	}
	for r := 0; r < 32; r++ {
		if again.Regs[r] != first.Regs[r] {
			add(fmt.Sprintf("x%d", r), again.Regs[r], first.Regs[r])
		}
		if again.FRegs[r] != first.FRegs[r] {
			add(fmt.Sprintf("f%d", r), again.FRegs[r], first.FRegs[r])
		}
	}
	if fs, as := statDump(first), statDump(again); fs != as {
		add("stats", firstStatDiff(as, fs), "(see diff)")
	}
	return strings.Join(diffs, "; "), nil
}

// statDump renders a registry deterministically for byte comparison.
func statDump(r *Result) string {
	var b strings.Builder
	for _, name := range r.Stats.Names() {
		fmt.Fprintf(&b, "%s = %v\n", name, r.Stats.Get(name))
	}
	return b.String()
}

// TestShardedLockstepDifferential sweeps the conformance corpus through
// every CPU model on the cached rig and requires an observed rerun's full
// Result to be identical to the first run's: every model is deterministic
// on its one event queue, and the commit observer the lockstep localizer
// attaches perturbs nothing. On a mismatch it ddmin-minimizes the generated
// program to the smallest source still diverging, so the failure message is
// directly actionable.
func TestShardedLockstepDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		g := Generate(GenConfig{Seed: seed})
		prog, err := isa.Assemble(g.Src)
		if err != nil {
			t.Fatalf("seed %d: assemble: %v", seed, err)
		}
		for _, model := range Models {
			diff, err := diffRerun(model, prog, true)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, model, err)
			}
			if diff == "" {
				continue
			}
			min := Minimize(g.Src, func(src string) bool {
				p, err := isa.Assemble(src)
				if err != nil {
					return false
				}
				d, err := diffRerun(model, p, true)
				return err == nil && d != ""
			}, 200)
			t.Fatalf("seed %d %s: rerun diverged from first run:\n%s\nminimized reproducer:\n%s",
				seed, model, diff, min)
		}
	}
}

// FuzzShardedEquivalence lets the fuzzer hunt for generated programs whose
// observed rerun diverges from the first run on any model, with or without
// caches — the determinism claim under adversarial event patterns rather
// than fixed seeds.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add(int64(1), byte(0), byte(0))
	f.Add(int64(42), byte(3), byte(1))
	f.Add(int64(-77), byte(5), byte(3))
	f.Fuzz(func(t *testing.T, seed int64, blocks, sel byte) {
		g := Generate(GenConfig{Seed: seed, Blocks: 2 + int(blocks%6)})
		prog, err := isa.Assemble(g.Src)
		if err != nil {
			t.Fatalf("generator emitted unassemblable source: %v\n%s", err, g.Src)
		}
		model := Models[int(sel)%len(Models)]
		caches := (sel/4)%2 == 0
		diff, err := diffRerun(model, prog, caches)
		if err != nil {
			t.Fatalf("%s caches=%v: %v", model, caches, err)
		}
		if diff != "" {
			t.Errorf("%s caches=%v: rerun diverged from first run: %s", model, caches, diff)
		}
	})
}
