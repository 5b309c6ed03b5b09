// Command g5lint runs this repository's determinism and simulator-contract
// analyzers (internal/lint) over Go packages.
//
// It speaks the `go vet -vettool` unitchecker protocol, so CI runs it as
//
//	go build -o g5lint ./cmd/g5lint
//	go vet -vettool=$PWD/g5lint ./...
//
// and it also works standalone — `go run ./cmd/g5lint ./...` — by
// re-executing itself through go vet, which supplies parsed compilation
// units (and their export data) per package. Standalone modes:
//
//	g5lint [packages]                findings as plain vet lines
//	g5lint -json [packages]          findings as a JSON array on stdout
//	g5lint -suppressions [packages]  audit every //lint: annotation and
//	                                 fail on stale ones (annotations whose
//	                                 diagnostic no longer fires)
//
// Analyzers: detmap, nowallclock, pastsched, statreg, detflow,
// floatorder; see internal/lint for what each enforces and for the
// //lint:deterministic and //lint:allow escape hatches.
package main

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"

	"gem5prof/internal/lint"
)

func main() {
	args := os.Args[1:]
	for _, arg := range args {
		if arg == "-V=full" || arg == "--V=full" || arg == "-flags" || arg == "--flags" ||
			strings.HasSuffix(arg, ".cfg") {
			lint.Main(lint.All()) // exits
		}
	}
	jsonMode, suppMode := false, false
	patterns := make([]string, 0, len(args))
	for _, arg := range args {
		switch arg {
		case "-json", "--json":
			jsonMode = true
		case "-suppressions", "--suppressions":
			suppMode = true
		default:
			patterns = append(patterns, arg)
		}
	}
	switch {
	case suppMode:
		os.Exit(suppressionsMode(patterns))
	case jsonMode:
		os.Exit(jsonMode2(patterns))
	default:
		os.Exit(standalone(patterns, nil))
	}
}

// standalone re-invokes the suite through `go vet -vettool=<self>` so the
// go command does the package loading and export-data plumbing. extra
// flags are inserted before the patterns. When capture is nil, output
// streams through; otherwise it is collected there and nothing is shown.
func standalone(patterns []string, capture *bytes.Buffer, extra ...string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "g5lint:", err)
		return 1
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	vetArgs := append([]string{"vet", "-vettool=" + self}, extra...)
	cmd := exec.Command("go", append(vetArgs, patterns...)...)
	if capture != nil {
		cmd.Stdout = capture
		cmd.Stderr = capture
	} else {
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
	}
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(os.Stderr, "g5lint:", err)
		return 1
	}
	return 0
}

// findingRE matches one rendered diagnostic line.
var findingRE = regexp.MustCompile(`^(.+?\.go):(\d+):(\d+): (.*) \[g5lint/([a-z]+)\]$`)

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonMode2 runs the suite and reprints the findings as a JSON array on
// stdout (always an array, possibly empty). Exit status 1 means findings
// were present, 2 means the underlying vet run failed some other way.
func jsonMode2(patterns []string) int {
	var out bytes.Buffer
	code := standalone(patterns, &out)
	findings := []jsonFinding{}
	sawOther := false
	for _, line := range strings.Split(out.String(), "\n") {
		m := findingRE.FindStringSubmatch(line)
		if m == nil {
			// Package headers ("# pkg"), blank lines and vet chatter are
			// expected; anything else (build errors) must not vanish.
			if line != "" && !strings.HasPrefix(line, "#") {
				fmt.Fprintln(os.Stderr, line)
				sawOther = true
			}
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		colNo, _ := strconv.Atoi(m[3])
		findings = append(findings, jsonFinding{File: m[1], Line: lineNo, Col: colNo,
			Analyzer: m[5], Message: m[4]})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	if err := enc.Encode(findings); err != nil {
		fmt.Fprintln(os.Stderr, "g5lint:", err)
		return 2
	}
	if code != 0 && len(findings) == 0 && sawOther {
		return 2
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// suppressionsMode audits every //lint: annotation: each unit re-runs
// with a cache-busting nonce and reports its annotations as
// g5lint-suppression lines; this parent renders the table and fails when
// any annotation is stale (suppresses nothing anymore).
func suppressionsMode(patterns []string) int {
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		fmt.Fprintln(os.Stderr, "g5lint:", err)
		return 2
	}
	var out bytes.Buffer
	standalone(patterns, &out, "-suppressions=run"+hex.EncodeToString(nonce[:]))
	type entry struct{ loc, analyzer, status, reason string }
	var entries []entry
	stale := 0
	for _, line := range strings.Split(out.String(), "\n") {
		rest, ok := strings.CutPrefix(line, lint.SuppressionPrefix)
		if !ok {
			// Ordinary findings still stream through in audit mode.
			if findingRE.MatchString(line) {
				fmt.Fprintln(os.Stderr, line)
			}
			continue
		}
		f := strings.SplitN(strings.TrimPrefix(rest, "\t"), "\t", 4)
		if len(f) != 4 {
			continue
		}
		entries = append(entries, entry{f[0], f[1], f[2], f[3]})
		if f[2] == "stale" {
			stale++
		}
	}
	for _, e := range entries {
		status := e.status
		if status == "stale" {
			status = "STALE"
		}
		fmt.Printf("%-5s %-12s %s\n      reason: %s\n", status, e.analyzer, e.loc, e.reason)
	}
	fmt.Printf("%d suppressions, %d stale\n", len(entries), stale)
	if stale > 0 {
		fmt.Println("stale suppressions excuse diagnostics that no longer fire; delete them")
		return 1
	}
	return 0
}
