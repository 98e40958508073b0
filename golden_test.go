// golden_test.go freezes FNV transcript digests of the paper's algorithms
// on fixed small graphs and seeds. A digest covers every node's
// (nodeID, step, action/deliver) event stream (trace.Hasher), so any future
// engine or algorithm change that silently alters protocol-visible
// semantics — delivery rules, retirement, RNG splitting, step accounting —
// flips the digest and fails these tests, while pure refactors and
// performance work leave it untouched (the determinism contract,
// DESIGN.md §3).
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/mis"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Frozen digests. These values are a contract: do not update them unless a
// deliberate, understood semantic change to the corresponding algorithm or
// to the engine's protocol-visible behavior is being made — and say so in
// the commit message.
const (
	goldenMIS       = uint64(0x5447b4108d26c71d) // mis.Run, 6x6 grid, seed 42
	goldenDecay     = uint64(0x986345ecd19d493b) // amplified Decay, 16-star, seed 7
	goldenBroadcast = uint64(0x7f9896d30390ce58) // core.Broadcast, 6x6 grid, seed 11
	goldenElection  = uint64(0xa70fbb5c63a096f0) // core.LeaderElection, 5x5 grid, seed 13
	// goldenDynDecay freezes the dynamic-topology semantics end to end: the
	// churn schedule construction (dyn.Churn on a 6x6 grid, schedule seed 3),
	// the engines' epoch swap, and delivery over mutated epochs. Any change
	// to the mutation-seed derivation, the delta application order, or the
	// epoch-boundary placement flips this digest.
	goldenDynDecay = uint64(0xc77a9386768f557e) // amplified Decay, churned 6x6 grid, seed 21
	// goldenSINRDecay freezes the physical-layer semantics end to end: the
	// mobile deployment draw (gen.MobileUDG, schedule seed 8), the per-epoch
	// position hand-off through dyn into phy.NewMobileSINR, the grid-bucketed
	// interference accumulation in fixed transmitter order, and the SINR
	// decode rule. Any change to the decode arithmetic, the cutoff default,
	// the position plumbing, or the epoch-boundary placement flips this
	// digest.
	goldenSINRDecay = uint64(0x487f98994ae2d74e) // amplified Decay, mobile SINR UDG, seed 19
)

func hashMIS(t *testing.T) uint64 {
	t.Helper()
	g := gen.Grid(6, 6)
	h := trace.NewHasher()
	out, err := mis.RunOnEngine(g, mis.Params{}, 42, func(f radio.Factory, o radio.Options) (radio.Result, error) {
		return radio.Run(g, h.Wrap(f), o)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed || mis.Verify(g, out.MIS) != nil {
		t.Fatalf("golden MIS run invalid: %+v", out)
	}
	return h.Sum()
}

func hashDecay(t *testing.T) uint64 {
	t.Helper()
	g := gen.Star(16)
	h := trace.NewHasher()
	factory := func(info radio.NodeInfo) radio.Protocol {
		return decay.NewNode(info, 4, info.Index > 0, info.Index)
	}
	if _, err := radio.Run(g, h.Wrap(factory), radio.Options{MaxSteps: 1 << 16, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	return h.Sum()
}

func hashDynDecay(t *testing.T) uint64 {
	t.Helper()
	g := gen.Grid(6, 6)
	sched, err := dyn.Churn(g, 8, 12, 0.25, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	h := trace.NewHasher()
	factory := func(info radio.NodeInfo) radio.Protocol {
		return decay.NewNode(info, 6, info.Index == 0, info.Index)
	}
	opts := radio.Options{MaxSteps: 1 << 10, Seed: 21, Topology: sched}
	if _, err := radio.Run(g, h.Wrap(factory), opts); err != nil {
		t.Fatal(err)
	}
	return h.Sum()
}

func hashSINRDecay(t *testing.T) uint64 {
	t.Helper()
	sched, err := gen.MobileUDG(36, 6, 16, 0.5, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	model, err := phy.NewMobileSINR(sched, phy.SINRParams{})
	if err != nil {
		t.Fatal(err)
	}
	h := trace.NewHasher()
	factory := func(info radio.NodeInfo) radio.Protocol {
		return decay.NewNode(info, 6, info.Index == 0, info.Index)
	}
	opts := radio.Options{MaxSteps: 1 << 10, Seed: 19, Topology: sched, PHY: model}
	if _, err := radio.Run(sched.CSR(0).Graph(), h.Wrap(factory), opts); err != nil {
		t.Fatal(err)
	}
	return h.Sum()
}

func hashBroadcast(t *testing.T) uint64 {
	t.Helper()
	g := gen.Grid(6, 6)
	h := trace.NewHasher()
	res, err := core.Broadcast(g, 0, core.Params{WrapFactory: h.Wrap}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompleteStep < 0 {
		t.Fatalf("golden broadcast did not complete: %+v", res)
	}
	return h.Sum()
}

func hashElection(t *testing.T) uint64 {
	t.Helper()
	g := gen.Grid(5, 5)
	h := trace.NewHasher()
	er, err := core.LeaderElection(g, core.Params{WrapFactory: h.Wrap}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if er.CompleteStep < 0 || er.Candidates < 1 {
		t.Fatalf("golden election did not complete: %+v", er)
	}
	return h.Sum()
}

func TestGoldenTranscripts(t *testing.T) {
	cases := []struct {
		name string
		want uint64
		run  func() uint64
	}{
		{"mis", goldenMIS, func() uint64 { return hashMIS(t) }},
		{"decay", goldenDecay, func() uint64 { return hashDecay(t) }},
		{"dyn-decay", goldenDynDecay, func() uint64 { return hashDynDecay(t) }},
		{"sinr-decay", goldenSINRDecay, func() uint64 { return hashSINRDecay(t) }},
		{"broadcast", goldenBroadcast, func() uint64 { return hashBroadcast(t) }},
		{"election", goldenElection, func() uint64 { return hashElection(t) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(); got != tc.want {
				t.Errorf("transcript digest = %#016x, frozen golden = %#016x\n"+
					"If this is a deliberate semantic change, update the constant and explain it; "+
					"otherwise the engine or algorithm drifted.", got, tc.want)
			}
		})
	}
}
