package lint_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSelfApplication is the acceptance bar of the suite: g5lint, run as
// a vet tool over this repository, must be clean — all six analyzers,
// including the interprocedural ones (detflow, floatorder)
// whose summaries flow through the vet facts path. Every real violation
// has been fixed and every benign one carries a reasoned annotation; a
// regression in either direction fails here. The suppression audit runs
// too: an annotation whose diagnostic no longer fires is dead weight
// that would silently excuse a future, different bug at the same line.
func TestSelfApplication(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and vets the whole module")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	tool := filepath.Join(t.TempDir(), "g5lint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/g5lint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building g5lint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool=g5lint ./... is not clean: %v\n%s", err, out)
	}

	audit := exec.Command(tool, "-suppressions", "./...")
	audit.Dir = root
	out, err := audit.CombinedOutput()
	if err != nil {
		t.Errorf("g5lint -suppressions ./... found stale annotations: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), ", 0 stale") {
		t.Errorf("suppression audit did not report zero stale:\n%s", out)
	}
}
