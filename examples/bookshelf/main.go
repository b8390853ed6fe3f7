// Bookshelf I/O: write a design in the ISPD 2005 bookshelf format, read
// it back from the .aux, place it, and emit the placed .pl — the external
// interchange loop of a real placement flow.
//
//	go run ./examples/bookshelf
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"xplace"
)

func main() {
	dir, err := os.MkdirTemp("", "xplace-bookshelf-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Synthesize a small design and write it out as bookshelf files.
	orig, err := xplace.GenerateBenchmark("pci_bridge32_a", 0.02, 7)
	if err != nil {
		log.Fatal(err)
	}
	if err := xplace.WriteBookshelf(dir, "pci_bridge32_a", orig); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote bookshelf files to", dir)
	for _, ext := range []string{".aux", ".nodes", ".nets", ".pl", ".scl"} {
		fi, err := os.Stat(filepath.Join(dir, "pci_bridge32_a"+ext))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-22s %8d bytes\n", fi.Name(), fi.Size())
	}

	// Read it back, as an external tool would.
	d, err := xplace.Load(filepath.Join(dir, "pci_bridge32_a.aux"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nread back: %d cells, %d nets, %d pins, HPWL %.4g\n",
		d.NumCells(), d.NumNets(), d.NumPins(), d.HPWL(nil, nil))

	// Place and write the result.
	fr, err := xplace.RunFlow(d, xplace.FlowOptions{
		Placement: xplace.DefaultPlacement(),
		Legalizer: xplace.LegalizeTetris,
	})
	if err != nil {
		log.Fatal(err)
	}
	out := filepath.Join(dir, "pci_bridge32_a_placed.pl")
	if err := xplace.WritePlacementPl(out, d, fr.FinalX, fr.FinalY); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed: HPWL %.4g -> %.4g (legal, %d violations), wrote %s\n",
		d.HPWL(nil, nil), fr.HPWLFinal, fr.Violations, filepath.Base(out))
}
