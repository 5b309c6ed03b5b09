// Command perfbench is gem5prof's benchmark. It runs one workload for a
// fixed time, checks every modelled output against recorded reference
// digests, and prints its metrics; the last line of standard output is one
// JSON object. Run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload cosim-cells --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer split. README.md documents the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"gem5prof/internal/core"
	"gem5prof/internal/experiments"
	"gem5prof/internal/uarch"
)

// suiteIDs is the suite workload's experiment set, run at quick scale.
var suiteIDs = []string{"fig02", "fig03", "fig04", "fig05", "fig06", "fig14", "fig15", "fig16"}

// setupRounds is how many times a run builds its cells before each pass
// to time set-up.
const setupRounds = 5

// abRounds is how many interleaved A-B alternations each coordination
// ratio takes.
const abRounds = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "cosim-cells, guest-batch or suite")
	seed := fs.Int64("seed", 1, "guest seed for every cell")
	seconds := fs.Float64("seconds", 40, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports the per-layer split instead of end-to-end metrics")
	record := fs.String("record", "", "record reference digests and host context to this file, then exit")
	commit := fs.String("commit", "", "commit the recorded references come from (with -record)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordReference(*record, *commit, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *workload != "cosim-cells" && *workload != "guest-batch" && *workload != "suite" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want cosim-cells, guest-batch or suite)\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	fmt.Fprintln(stdout, hostLine(ref.Host))

	b := &bench{ref: ref, workload: *workload, seed: *seed, log: stderr}
	var ms metrics
	if *trace == 1 {
		ms = b.traced()
	} else {
		ms = b.untraced(time.Duration(*seconds * float64(time.Second)))
	}
	return b.report(stdout, ms)
}

// bench is one benchmark run: its workload, seed and failure tally.
type bench struct {
	ref      reference
	workload string
	seed     int64
	log      io.Writer

	attempted, failed int
	// ungated are end-to-end metrics printed but left out of the result
	// line (README.md says why).
	ungated metrics
}

// tally counts one checked operation, logging a failure.
func (b *bench) tally(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "FAIL %s: %v\n", what, err)
	}
}

// cells returns the workload's cells; the suite has none of its own.
func (b *bench) cells() []cell {
	switch b.workload {
	case "cosim-cells":
		return cosimCells(b.seed)
	case "guest-batch":
		return guestCells(b.seed)
	}
	return nil
}

// runCell runs one cell untraced and checks it against the oracle,
// returning its committed instructions (0 on failure).
func (b *bench) runCell(c cell) uint64 {
	g, err := check(b.ref.Cells[c.name].Full, func() (*core.GuestResult, *uarch.Report, error) { return runUntraced(c) })
	b.tally(c.name, err)
	if err != nil {
		return 0
	}
	return g.Insts
}

// runSuite runs the suite once from cold caches and checks each rendered
// experiment report against the oracle.
func (b *bench) runSuite() {
	experiments.ResetCaches()
	opt := experiments.Options{Quick: true, Jobs: runtime.NumCPU()}
	for oc := range experiments.RunMany(suiteIDs, opt) {
		b.tally(oc.ID, b.checkReport(oc.ID, oc.Res, oc.Err))
	}
}

// checkReport checks one experiment's outcome against the oracle.
func (b *bench) checkReport(id string, res *experiments.Result, err error) error {
	if err != nil {
		return err
	}
	if got := sha(res.Render()); got != b.ref.Suite[id] {
		return fmt.Errorf("report digest %.12s differs from reference %.12s", got, b.ref.Suite[id])
	}
	return nil
}

// pass runs the workload once: every cell in order, or the suite.
func (b *bench) pass() (insts uint64) {
	if b.workload == "suite" {
		b.runSuite()
		return 0
	}
	for _, c := range b.cells() {
		insts += b.runCell(c)
	}
	return insts
}

// sample is one measured pass.
type sample struct {
	wall, cpu time.Duration
	allocB    uint64
	insts     uint64
	peakMiB   float64
	mem       runtime.MemStats // at the end of the pass
}

// measure runs fn and returns its wall, CPU and memory cost. It first
// returns freed memory to the OS, so each pass's peak resident set starts
// from the same floor instead of from what the previous pass left behind.
func measure(fn func() uint64) sample {
	debug.FreeOSMemory()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	c0 := cpuTime()
	t0 := time.Now()
	insts := fn()
	s := sample{wall: time.Since(t0), cpu: cpuTime() - c0, insts: insts, peakMiB: peakRSSMiB()}
	runtime.ReadMemStats(&s.mem)
	s.allocB = s.mem.TotalAlloc - m0.TotalAlloc
	s.mem.NumGC -= m0.NumGC
	s.mem.PauseTotalNs -= m0.PauseTotalNs
	s.mem.Mallocs -= m0.Mallocs
	return s
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak resident set count for this
// process, so peakRSSMiB reports the peak since the call. Where the kernel
// refuses, the peak stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			fmt.Sscanf(strings.TrimSpace(v), "%g", &kib)
			return kib / 1024
		}
	}
	return 0
}

// setupCells are the cells whose set-up setup_s times. The suite builds
// its cells inside the harness, out of reach, so it times the set-up of
// the other two workloads' cells, which use the same constructors.
func (b *bench) setupCells() []cell {
	if b.workload == "suite" {
		return append(cosimCells(b.seed), guestCells(b.seed)...)
	}
	return b.cells()
}

// timeSetUp builds every set-up cell setupRounds times, starting from a
// collected heap as each pass does, and returns each round's duration.
func (b *bench) timeSetUp() []float64 {
	debug.FreeOSMemory()
	rounds := make([]float64, setupRounds)
	for i := range rounds {
		t0 := time.Now()
		for _, c := range b.setupCells() {
			if err := setUp(c); err != nil {
				b.tally(c.name+" set-up", err)
			}
		}
		rounds[i] = time.Since(t0).Seconds()
	}
	return rounds
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// untraced measures the end-to-end metrics: passes of the workload,
// back to back, while the next pass is expected to end inside the window
// (at least one pass). Set-up rounds precede every pass, so setup_s
// samples the same stretch of the host's time as the passes do. Every
// metric is a median: setup_s over set-up rounds, the rest over passes.
func (b *bench) untraced(window time.Duration) metrics {
	var setups, walls, cpus, allocs, peaks, ips []float64
	start := time.Now()
	for {
		setups = append(setups, b.timeSetUp()...)
		s := measure(b.pass)
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		allocs = append(allocs, float64(s.allocB)/(1<<20))
		peaks = append(peaks, s.peakMiB)
		ips = append(ips, float64(s.insts)/s.wall.Seconds())
		next := time.Duration(median(walls) * float64(time.Second))
		if time.Since(start)+next > window {
			break
		}
	}
	ms := metrics{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"setup_s":     {median(setups), "s"},
		"alloc_mb":    {median(allocs), "MiB"},
		"peak_rss_mb": {median(peaks), "MiB"},
	}
	fmt.Fprintf(b.log, "%s: %d passes, wall_s %.3f, peak_rss_mb %.1f, setup_s over %d rounds %.4f..%.4f\n",
		b.workload, len(walls), walls, peaks, len(setups), slices.Min(setups), slices.Max(setups))
	if b.workload != "suite" {
		b.ungated = metrics{"guest_ips": {median(ips), "insts/s"}}
	}
	return ms
}

func (b *bench) failFrac() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

// report prints the metrics as a table and then the result line.
func (b *bench) report(w io.Writer, ms metrics) int {
	printTable(w, b.workload, ms)
	if b.ungated != nil {
		printTable(w, "not gated", b.ungated)
	}
	fmt.Fprintf(w, "fail_frac %.4f ratio (%d of %d operations failed)\n", b.failFrac(), b.failed, b.attempted)
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, ms}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(b.log, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	return 0
}

func printTable(w io.Writer, title string, ms metrics) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// median of vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// quartiles returns the first and third quartiles of vs by the exclusive
// method (Python's statistics.quantiles default).
func quartiles(vs []float64) (q1, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// hostInfo is the host context a result belongs to.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisHost() hostInfo {
	return hostInfo{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// hostLine describes this host and whether its figures are comparable with
// those recorded on the reference host: a different core count changes
// the pipeline, shard and job decisions, so such results are labelled and
// must not be compared as if from the same host.
func hostLine(rec hostInfo) string {
	h := thisHost()
	label := "same host class as the recorded results"
	if h.NProc != rec.NProc {
		label = fmt.Sprintf("DIFFERENT HOST: nproc %d, recorded on nproc %d; do not compare with recorded results", h.NProc, rec.NProc)
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s (%s)", h.CPU, h.NProc, h.GOMAXPROCS, h.Go, label)
}
