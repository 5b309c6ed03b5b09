// Command g5 runs one guest simulation of the g5 architectural simulator:
// pick a CPU model, a mode, and a workload, and get gem5-style statistics.
//
// Usage:
//
//	g5 -cpu o3 -mode se -workload water_nsquared -scale 96 -stats
//	g5 -mode fs -boot-exit -cpu atomic
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gem5prof"
)

func main() {
	cpuModel := flag.String("cpu", "atomic", "CPU model: atomic|timing|minor|o3")
	mode := flag.String("mode", "se", "simulation mode: se|fs")
	workload := flag.String("workload", "sieve", "workload name (see -list)")
	scale := flag.Int("scale", 0, "problem size (0 = workload default)")
	bootExit := flag.Bool("boot-exit", false, "FS mode: boot the kernel and exit")
	numCPUs := flag.Int("ncpus", 1, "simulated cores, 1-64 (SE: threads dispatched by spawn; FS: secondary harts park)")
	ideal := flag.Bool("ideal-mem", false, "disable the cache model")
	guestTLBs := flag.Bool("guest-tlbs", false, "insert guest iTLB/dTLB in front of the L1s")
	stats := flag.Bool("stats", false, "dump the full statistics registry")
	list := flag.Bool("list", false, "list workloads and exit")
	ckptOut := flag.String("take-checkpoint", "", "fast-forward (atomic CPU), write a checkpoint here and exit")
	ckptAfter := flag.Duration("checkpoint-after", 0, "guest time to fast-forward before checkpointing (e.g. 20us)")
	restore := flag.String("restore", "", "resume from a checkpoint file")
	tracePath := flag.String("trace", "", "write an Exec trace (one line per committed instruction)")
	flag.Parse()

	if *list {
		fmt.Println("workloads:", strings.Join(gem5prof.WorkloadNames(), " "))
		return
	}

	cfg := gem5prof.GuestConfig{
		CPU:         gem5prof.CPUModel(*cpuModel),
		Mode:        gem5prof.Mode(*mode),
		Workload:    *workload,
		Scale:       *scale,
		BootExit:    *bootExit,
		Cores:       *numCPUs,
		IdealMemory: *ideal,
		GuestTLBs:   *guestTLBs,
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "g5:", err)
			os.Exit(1)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		cfg.ExecTrace = w
	}
	t0 := time.Now()
	if *ckptOut != "" {
		if err := takeCheckpoint(cfg, *ckptOut, *ckptAfter); err != nil {
			fmt.Fprintln(os.Stderr, "g5:", err)
			os.Exit(1)
		}
		return
	}
	var res *gem5prof.GuestResult
	var err error
	if *restore != "" {
		res, err = restoreAndRun(cfg, *restore)
	} else {
		res, err = gem5prof.RunGuest(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "g5:", err)
		os.Exit(1)
	}
	fmt.Printf("Exiting @ tick %d because %s (code %d)\n", res.SimTicks, res.ExitReason, res.ExitCode)
	fmt.Printf("committed instructions: %d\n", res.Insts)
	fmt.Printf("simulated seconds:      %.6f\n", float64(res.SimTicks)/1e12)
	fmt.Printf("host wall clock:        %v\n", time.Since(t0).Round(time.Millisecond))
	if res.Expected != 0 || res.ChecksumOK {
		fmt.Printf("checksum:               %#x (reference match: %v)\n", uint32(res.ExitCode), res.ChecksumOK)
	}
	if res.Stdout != "" {
		fmt.Printf("--- guest output ---\n%s", res.Stdout)
	}
	if *stats {
		fmt.Print(res.Stats.Dump())
	}
}

// takeCheckpoint fast-forwards with the Atomic CPU and writes a checkpoint.
func takeCheckpoint(cfg gem5prof.GuestConfig, path string, after time.Duration) error {
	cfg.CPU = gem5prof.Atomic
	if after <= 0 {
		after = 20 * time.Microsecond
	}
	g, err := gem5prof.NewGuest(cfg)
	if err != nil {
		return err
	}
	res := g.RunFor(gem5prof.Tick(after.Nanoseconds()) * gem5prof.Nanosecond)
	fmt.Printf("fast-forwarded to tick %d (%v)\n", res.Now, res.Status)
	ck, err := g.TakeCheckpoint()
	if err != nil {
		return err
	}
	data, err := ck.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d instructions, %d bytes\n", path, ck.Insts, len(data))
	return nil
}

// restoreAndRun resumes a checkpoint under the requested CPU model.
func restoreAndRun(cfg gem5prof.GuestConfig, path string) (*gem5prof.GuestResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck, err := gem5prof.DecodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	g, err := gem5prof.RestoreFromCheckpoint(cfg, ck)
	if err != nil {
		return nil, err
	}
	fmt.Printf("restored %s at tick %d into the %s model\n", path, ck.Tick, cfg.CPU)
	return g.Run()
}
