// Updown: what Up*/Down* routing (Autonet) — the routing-based way to rule
// deadlock out, paper §8 — costs in path length on a 5-switch ring and on a
// k=4 fat-tree, healthy and with failed links.
package main

import (
	"fmt"
	"math/rand"

	gfc "github.com/gfcsim/gfc"
)

func report(name string, topo *gfc.Topology) {
	ud, err := gfc.NewUpDown(topo)
	if err != nil {
		panic(err)
	}
	stretch, inflated, err := ud.AllPairsStretch(gfc.NewSPF(topo))
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-28s mean path stretch %.2f, %.0f%% of host pairs inflated\n",
		name, stretch, inflated*100)
}

func main() {
	fmt.Println("Up*/Down* routing: CBD-free by construction; the price is path length.")
	report("ring of 5 switches", gfc.Ring(5, gfc.DefaultLinkParams()))
	report("fat-tree k=4", gfc.FatTree(4, gfc.DefaultLinkParams()))
	failed := gfc.FatTree(4, gfc.DefaultLinkParams())
	failed.FailRandomLinks(rand.New(rand.NewSource(1)), 0.2)
	report("fat-tree k=4, 20% links down", failed)
}
