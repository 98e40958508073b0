package gen

import (
	"slices"
	"testing"

	"repro/internal/phy"
)

// TestPhyDeploymentSINRConnectivity pins the graph PhyDeployment hands out
// for phy:sinr: neighbor-for-neighbor the decode-range connectivity view of
// the drawn points, whether the default range lets it reuse the draw's own
// UDG or a non-default range forces a fresh build.
func TestPhyDeploymentSINRConnectivity(t *testing.T) {
	const n, seed = 300, 11
	_, pts, err := ByNameWithPoints("phy:sinr", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, params := range []phy.SINRParams{{}, {Noise: 0.25, NoiseSet: true}} {
		g, m, err := PhyDeployment("phy:sinr", n, seed, params)
		if err != nil {
			t.Fatal(err)
		}
		want := SINRConnectivity(pts, m.(*phy.SINR).Params())
		if g.M() != want.M() {
			t.Fatalf("range %v: %d edges, want %d", params.DecodeRange(), g.M(), want.M())
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(g.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("range %v: node %d neighbors %v, want %v", params.DecodeRange(), v, g.Neighbors(v), want.Neighbors(v))
			}
		}
	}
}
