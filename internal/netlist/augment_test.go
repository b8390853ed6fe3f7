package netlist_test

import (
	"testing"

	"xplace/internal/benchgen"
	"xplace/internal/netlist"
)

var augmentSink *netlist.Design

// BenchmarkAugment times what the placer does to a design before its first
// iteration — WithFillers at target density 1 — at the gp-cells shape
// (adaptec1 x 0.25: 53k cells and as many fillers).
func BenchmarkAugment(b *testing.B) {
	spec, ok := benchgen.FindSpec("adaptec1")
	if !ok {
		b.Fatal("no adaptec1 spec")
	}
	d := benchgen.Generate(spec, 0.25, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		augmentSink = d.WithFillers(1.0)
	}
}
