// ISPD 2005 flow: generate a scaled adaptec1, run the full Xplace flow
// (GP -> legalization -> detailed placement) against the DREAMPlace-style
// baseline, and print a Table 2-style comparison row.
//
//	go run ./examples/ispd2005flow
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"xplace"
)

func main() {
	d, err := xplace.GenerateBenchmark("adaptec1", 0.01, 1)
	if err != nil {
		log.Fatal(err)
	}
	st := d.Stats()
	fmt.Printf("adaptec1 (scaled): %d movable cells, %d fixed, %d nets, util %.2f\n\n",
		st.Movable, st.Fixed, st.Nets, st.Util)

	// Simulated-GPU regime: kernel launches cost 150us on the simulated
	// clock (see DESIGN.md), the balance the paper's speedups live in.
	s := xplace.NewSession(xplace.WithEngineOptions(0, 150*time.Microsecond))
	defer s.Close()
	run := func(label string, p xplace.PlacementOptions) *xplace.FlowResult {
		fr, err := s.Flow(context.Background(), d, xplace.FlowOptions{
			Placement: p,
			Legalizer: xplace.LegalizeTetris,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s HPWL %.4g (GP %.4g)  GP %6.2fs sim  DP %5.2fs  iters %d  violations %d\n",
			label, fr.HPWLFinal, fr.HPWLGP, fr.GPSim.Seconds(),
			(fr.LGTime + fr.DPTime).Seconds(), fr.GP.Iterations, fr.Violations)
		return fr
	}

	base := run("DREAMPlace", xplace.BaselinePlacement())
	xp := run("Xplace", xplace.DefaultPlacement())

	fmt.Printf("\nGP speedup: %.2fx at HPWL ratio %.4f (paper: ~1.6x at ~1.003)\n",
		base.GPSim.Seconds()/xp.GPSim.Seconds(), base.HPWLFinal/xp.HPWLFinal)

	// Persist the placed design as a bookshelf .pl.
	out := filepath.Join(os.TempDir(), "adaptec1_placed.pl")
	if err := xplace.WritePlacementPl(out, d, xp.FinalX, xp.FinalY); err != nil {
		log.Fatal(err)
	}
	fmt.Println("placed positions written to", out)
}
