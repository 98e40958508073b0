// golden_compact_test.go re-runs two golden workloads through the graph-free
// radio.RunCSR entry point with the adjacency bit-packed — forcing the
// compact form far below its size threshold — and requires the frozen
// digests from golden_test.go byte-for-byte. This pins two contracts at
// once: the packed neighbor blocks are protocol-invisible (same delivery,
// same order), and RunCSR's static-snapshot topology adapter is transcript-
// identical to the classic Run path.
package repro

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/radio"
	"repro/internal/trace"

	"repro/internal/decay"
)

// packedSnapshot freezes g and forces the compact adjacency form, failing
// the test if packing declined (it never should at golden sizes).
func packedSnapshot(t *testing.T, g *graph.Graph) *graph.CSR {
	t.Helper()
	csr := g.Freeze().Pack()
	if !csr.IsPacked() {
		t.Fatal("Pack returned a flat snapshot")
	}
	return csr
}

func hashMISPacked(t *testing.T) uint64 {
	t.Helper()
	g := gen.Grid(6, 6)
	csr := packedSnapshot(t, g)
	h := trace.NewHasher()
	out, err := mis.RunOnEngine(g, mis.Params{}, 42, func(f radio.Factory, o radio.Options) (radio.Result, error) {
		return radio.RunCSR(csr, h.Wrap(f), o)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed || mis.Verify(g, out.MIS) != nil {
		t.Fatalf("packed MIS run invalid: %+v", out)
	}
	return h.Sum()
}

func hashDecayPacked(t *testing.T) uint64 {
	t.Helper()
	csr := packedSnapshot(t, gen.Star(16))
	h := trace.NewHasher()
	factory := func(info radio.NodeInfo) radio.Protocol {
		return decay.NewNode(info, 4, info.Index > 0, info.Index)
	}
	if _, err := radio.RunCSR(csr, h.Wrap(factory), radio.Options{MaxSteps: 1 << 16, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return h.Sum()
}

func TestGoldenTranscriptsPackedCSR(t *testing.T) {
	cases := []struct {
		name string
		want uint64
		run  func() uint64
	}{
		{"mis", goldenMIS, func() uint64 { return hashMISPacked(t) }},
		{"decay", goldenDecay, func() uint64 { return hashDecayPacked(t) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(); got != tc.want {
				t.Errorf("packed-CSR transcript digest = %#016x, frozen golden = %#016x\n"+
					"The compact adjacency form or the RunCSR snapshot path changed "+
					"protocol-visible behavior.", got, tc.want)
			}
		})
	}
}
