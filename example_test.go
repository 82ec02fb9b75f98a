package gfc_test

import (
	"context"
	"fmt"
	"math/rand"

	gfc "github.com/gfcsim/gfc"
)

// ExampleBuild runs the paper's deadlock-formation ring (Figures 1 and 9:
// three switches, two hosts each, every host sending two switches clockwise)
// for 20 ms under PFC and under buffer-based GFC. PFC wedges the cycle; GFC
// keeps every channel's permitted rate above zero, so no deadlock forms — but
// in this persistently oversubscribed ring it settles at its floor rate
// rather than at a fair share (ROADMAP item 1).
func ExampleBuild() {
	for _, fc := range []gfc.FC{gfc.PFC, gfc.GFCBuffer} {
		spec := gfc.TestbedRing(fc, 2)
		spec.Run.DurationNs = 20 * gfc.Millisecond
		sim, err := gfc.Build(spec, nil)
		if err != nil {
			panic(err)
		}
		res := sim.Run()
		verdict := "no deadlock"
		if res.Deadlocked {
			verdict = fmt.Sprintf("DEADLOCK at %v", res.DeadlockAt)
		}
		fmt.Printf("%-10s %s, %v delivered, %d drops\n", fc, verdict, res.Delivered, res.Drops)
	}
	// Output:
	// PFC        DEADLOCK at 7ms, 801KB delivered, 0 drops
	// GFC-buffer no deadlock, 990KB delivered, 0 drops
}

// ExampleNewSafeStageTable derives the §5.4 buffer-based GFC parameters for
// a 10 GbE port.
func ExampleNewSafeStageTable() {
	c := 10 * gfc.Gbps
	tau := gfc.Tau(c, 1500*gfc.Byte, gfc.Microsecond, 3*gfc.Microsecond)
	bm := 1000 * gfc.KB
	b1 := gfc.BufferBasedB1Bound(bm, c, tau)
	table, err := gfc.NewSafeStageTable(c, bm, b1, tau)
	if err != nil {
		panic(err)
	}
	fmt.Println("tau:", tau)
	fmt.Println("R1:", table.StageRate(1))
	fmt.Println("R2:", table.StageRate(2))
	// Output:
	// tau: 7.4µs
	// R1: 5Gbps
	// R2: 2.5Gbps
}

// ExampleContinuousMapping shows the Figure 5 steady state: with a 5 Gb/s
// draining rate the queue settles at B_s = 75 KB.
func ExampleContinuousMapping() {
	m := gfc.ContinuousMapping{C: 10 * gfc.Gbps, B0: 50 * gfc.KB, Bm: 100 * gfc.KB}
	fmt.Println("B_s:", m.SteadyQueue(5*gfc.Gbps))
	fmt.Println("rate at B_s:", m.Rate(75*gfc.KB))
	// Output:
	// B_s: 75KB
	// rate at B_s: 5Gbps
}

// ExampleCBDFromAllPairs checks a topology for cyclic buffer dependencies
// before deployment.
func ExampleCBDFromAllPairs() {
	topo := gfc.FatTree(4, gfc.DefaultLinkParams())
	tab := gfc.NewSPF(topo)
	g := gfc.CBDFromAllPairs(topo, tab, gfc.EdgeRacks(topo))
	fmt.Println("CBD possible:", g.HasCycle())
	// Output:
	// CBD possible: false
}

// ExampleNewUpDown prices Up*/Down* routing (Autonet), the routing-based way
// to rule deadlock out (§8): CBD-free by construction, paid for in path length
// on a 5-switch ring and on a k=4 fat-tree, healthy and with failed links.
func ExampleNewUpDown() {
	failed := gfc.FatTree(4, gfc.DefaultLinkParams())
	failed.FailRandomLinks(rand.New(rand.NewSource(1)), 0.2)
	for _, c := range []struct {
		name string
		topo *gfc.Topology
	}{
		{"ring of 5 switches", gfc.Ring(5, gfc.DefaultLinkParams())},
		{"fat-tree k=4", gfc.FatTree(4, gfc.DefaultLinkParams())},
		{"fat-tree k=4, 20% links down", failed},
	} {
		ud, err := gfc.NewUpDown(c.topo)
		if err != nil {
			panic(err)
		}
		stretch, inflated, err := ud.AllPairsStretch(gfc.NewSPF(c.topo))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: mean path stretch %.2f, %.0f%% of host pairs inflated\n", c.name, stretch, inflated*100)
	}
	// Output:
	// ring of 5 switches: mean path stretch 1.02, 10% of host pairs inflated
	// fat-tree k=4: mean path stretch 1.00, 0% of host pairs inflated
	// fat-tree k=4, 20% links down: mean path stretch 1.04, 13% of host pairs inflated
}

// ExampleRunSweep is a mini Table 1 (§6.2.3): 60 random k=4 failure
// scenarios, one workload repeat on each CBD-prone one, every scheme of the
// paper's comparison. The result is bit-identical for every Workers count;
// `gfcsim -exp table1` runs the full table.
func ExampleRunSweep() {
	cfg := gfc.DefaultSweep(4)
	cfg.Networks, cfg.Repeats = 60, 1
	for _, fc := range gfc.AllFCs() {
		res, err := gfc.RunSweep(context.Background(), fc, cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s deadlocked in %d of %d CBD-prone scenarios\n", fc, res.DeadlockCases, res.CBDProne)
	}
	// Output:
	// PFC        deadlocked in 1 of 3 CBD-prone scenarios
	// GFC-buffer deadlocked in 0 of 3 CBD-prone scenarios
	// CBFC       deadlocked in 0 of 3 CBD-prone scenarios
	// GFC-time   deadlocked in 0 of 3 CBD-prone scenarios
}
