// Mini Table 1 through the library sweep: scan random fat-tree failure
// scenarios, keep the CBD-prone ones, drive them with the enterprise workload
// and count deadlock cases per flow-control scheme — a reduced-scale §6.2.3.
//
// This is gfc.RunSweep, the same sweep cmd/gfcsim -exp table1 runs, once per
// scheme. Every scenario is a share-nothing simulation seeded from its index
// and results fold in scenario order, so the output is byte-identical for
// every -workers count. Checkpoints, budgets, fault injection, metrics reports
// and single declarative scenarios are cmd/gfcsim's job (-checkpoint,
// -budget-*, -exp faults, -metrics-out, -scenario).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	gfc "github.com/gfcsim/gfc"
)

func main() {
	k := flag.Int("k", 4, "fat-tree arity")
	networks := flag.Int("networks", 120, "random scenarios to scan")
	repeats := flag.Int("repeats", 2, "workload repeats per prone scenario")
	seed := flag.Int64("seed", 1, "base seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "scenarios simulated concurrently")
	flag.Parse()

	cfg := gfc.DefaultSweep(*k)
	cfg.Networks, cfg.Repeats, cfg.Seed, cfg.Workers = *networks, *repeats, *seed, *workers

	fmt.Printf("Deadlock cases over %d random k=%d scenarios × %d repeats (any repeat deadlocked):\n",
		*networks, *k, *repeats)
	fmt.Print(gfc.Table1Rows(map[int]map[gfc.FC]*gfc.SweepResult{*k: sweepAll(cfg)}, []int{*k}).String())
}

// sweepAll runs the library sweep once per scheme of the paper's comparison;
// a quarantined cell (a panicked or runaway scenario) ends the program.
func sweepAll(cfg gfc.SweepConfig) map[gfc.FC]*gfc.SweepResult {
	results := make(map[gfc.FC]*gfc.SweepResult)
	for _, fc := range gfc.AllFCs() {
		res, err := gfc.RunSweep(context.Background(), fc, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if len(res.Failures) > 0 {
			fmt.Fprint(os.Stderr, res.FailureSummary())
			os.Exit(3)
		}
		results[fc] = res
	}
	return results
}
