// Command benchjson converts `go test -bench` text output (on stdin)
// into a JSON document (on stdout), for archiving benchmark runs as CI
// artifacts (BENCH_hotpath.json) so the perf trajectory of the hot-path
// data structures is machine-comparable across commits.
//
// Usage:
//
//	go test -bench 'BenchmarkHostMachineFetch' -benchmem . | go run ./cmd/benchjson > BENCH_hotpath.json
//
//	go test -bench ... | go run ./cmd/benchjson \
//	    -check BENCH_hotpath.json,BENCH_coherence.json -tolerance 0.15 > fresh.json
//
// Lines that are not benchmark results (goos/goarch/pkg/cpu headers, PASS,
// ok) are folded into the context block; unknown lines are ignored.
//
// -check is the CI regression gate: every checked-in record whose name
// matches a fresh result is compared on ns/op (a record's baseline is its
// after_ns_per_op field if present, else ns_per_op — both the archived
// before/after documents at the repo root and benchjson's own output
// parse), and the command exits 3 if any fresh result is more than
// -tolerance (default 0.15, i.e. 15%) slower than its baseline — or if a
// baseline file is unreadable, is not valid JSON, or contains no usable
// entries, since a gate whose baseline fails to load must fail rather
// than pass vacuously. This is what keeps recorded wins from silently
// rotting. Baselines are per-runner-class: a cpu mismatch between the
// baseline's context block and the fresh run's is reported to stderr so
// cross-machine noise is diagnosable.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	MBPerSec    *float64           `json:"mb_per_sec,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the emitted JSON document.
type Doc struct {
	Context    map[string]string `json:"context"`
	Benchmarks []Result          `json:"benchmarks"`
}

func main() {
	check := flag.String("check", "", "comma-separated baseline JSON files; fail (exit 3) on any >tolerance ns/op regression")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional ns/op regression against -check baselines")
	flag.Parse()

	doc, err := parseStream(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *check == "" {
		return
	}
	os.Exit(runCheck(doc, strings.Split(*check, ","), *tolerance, os.Stderr))
}

// runCheck gates the fresh document against every baseline file and
// returns the process exit code: 0 when clean, 3 on any regression or any
// unusable baseline. An unreadable file, malformed JSON, or a document
// with no gateable ns/op entries (schema drift, an empty {}) all exit 3
// rather than warn: a gate that cannot load its baseline would otherwise
// pass vacuously, which is indistinguishable from green in CI.
func runCheck(doc Doc, paths []string, tolerance float64, stderr io.Writer) int {
	failed := false
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		base, err := loadBaseline(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchjson: bad baseline: %v\n", err)
			failed = true
			continue
		}
		if base.gateable() == 0 {
			fmt.Fprintf(stderr, "benchjson: bad baseline: %s: no usable ns/op entries (empty or schema-drifted document)\n", path)
			failed = true
			continue
		}
		if bcpu, fcpu := base.contextString("cpu"), doc.Context["cpu"]; bcpu != "" && fcpu != "" && bcpu != fcpu {
			fmt.Fprintf(stderr, "benchjson: note: %s was recorded on %q, this run is on %q — absolute comparison is cross-machine\n",
				path, bcpu, fcpu)
		}
		for _, line := range compare(doc, base, tolerance) {
			fmt.Fprintf(stderr, "benchjson: %s: %s\n", path, line.text)
			failed = failed || line.regressed
		}
	}
	if failed {
		fmt.Fprintf(stderr, "benchjson: FAIL: benchmark regression beyond %.0f%% or unusable baseline\n", tolerance*100)
		return 3
	}
	return 0
}

// parseStream parses `go test -bench` output into a Doc.
func parseStream(in io.Reader) (Doc, error) {
	doc := Doc{Context: map[string]string{}, Benchmarks: []Result{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "PASS" || strings.HasPrefix(line, "ok "):
			continue
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			doc.Context[k] = strings.TrimSpace(v)
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	return doc, sc.Err()
}

// baselineEntry is one record of a checked-in benchmark document. Both
// benchjson's own output (ns_per_op) and the hand-annotated before/after
// records at the repo root (after_ns_per_op) parse into it.
type baselineEntry struct {
	Name         string  `json:"name"`
	NsPerOp      float64 `json:"ns_per_op"`
	AfterNsPerOp float64 `json:"after_ns_per_op"`
}

// baseline returns the entry's gating value: the post-optimization number
// when the record carries a before/after pair, else the plain measurement.
func (e baselineEntry) baseline() float64 {
	if e.AfterNsPerOp > 0 {
		return e.AfterNsPerOp
	}
	return e.NsPerOp
}

// baselineDoc is a checked-in benchmark document. Context values are
// free-form (the hand-annotated records carry non-string entries), so they
// decode as any.
type baselineDoc struct {
	Context    map[string]any  `json:"context"`
	Benchmarks []baselineEntry `json:"benchmarks"`
}

// contextString returns the named context value if it is a string.
func (d baselineDoc) contextString(key string) string {
	s, _ := d.Context[key].(string)
	return s
}

// gateable counts entries carrying a usable positive baseline value.
func (d baselineDoc) gateable() int {
	n := 0
	for _, e := range d.Benchmarks {
		if e.baseline() > 0 {
			n++
		}
	}
	return n
}

func loadBaseline(path string) (baselineDoc, error) {
	var doc baselineDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// verdict is one comparison outcome line.
type verdict struct {
	text      string
	regressed bool
}

// compare gates fresh against base: any fresh ns/op more than tolerance
// above its baseline is a regression. Baseline entries the fresh run did
// not measure are reported but never fail (bench selection legitimately
// varies); entries without a usable baseline value are skipped.
func compare(fresh Doc, base baselineDoc, tolerance float64) []verdict {
	freshBy := map[string]Result{}
	for _, r := range fresh.Benchmarks {
		freshBy[r.Name] = r
	}
	var out []verdict
	for _, e := range base.Benchmarks {
		want := e.baseline()
		if want <= 0 {
			continue
		}
		got, ok := freshBy[e.Name]
		if !ok {
			out = append(out, verdict{text: fmt.Sprintf("%s: baseline %.4g ns/op, not measured in this run", e.Name, want)})
			continue
		}
		ratio := got.NsPerOp / want
		switch {
		case ratio > 1+tolerance:
			out = append(out, verdict{
				text: fmt.Sprintf("%s: REGRESSED %.4g -> %.4g ns/op (%+.1f%%, limit %+.0f%%)",
					e.Name, want, got.NsPerOp, (ratio-1)*100, tolerance*100),
				regressed: true,
			})
		default:
			out = append(out, verdict{text: fmt.Sprintf("%s: ok %.4g -> %.4g ns/op (%+.1f%%)",
				e.Name, want, got.NsPerOp, (ratio-1)*100)})
		}
	}
	return out
}

// parseBench parses one result line of the form
//
//	BenchmarkName-8   1234   56.7 ns/op   8 B/op   1 allocs/op   2.5 extra-unit
func parseBench(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the -GOMAXPROCS suffix.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	// The rest are value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = &v
		case "allocs/op":
			r.AllocsPerOp = &v
		case "MB/s":
			r.MBPerSec = &v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, true
}
