package mis

import (
	"fmt"

	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/radio"
)

// DegreeEstimate is the outcome of a standalone EstimateEffectiveDegree run
// (Algorithm 6) for one node.
type DegreeEstimate struct {
	// High is the procedure's output: true = High, false = Low.
	High bool
	// MaxBlockCount is the largest per-block reception count observed.
	MaxBlockCount int
	// TrueEffectiveDegree is the engine-side d(v) = Σ_{u∈N(v)} p(u),
	// recorded for experiment tables; the node itself never sees it.
	TrueEffectiveDegree float64
}

// degreeNode runs exactly one EstimateEffectiveDegree block and halts.
type degreeNode struct {
	info     radio.NodeInfo
	p        float64
	blockLen int
	blocks   int
	step     int
	counts   []int
	done     bool
}

var _ radio.Protocol = (*degreeNode)(nil)

func (d *degreeNode) Act(step int) radio.Action {
	if d.step >= d.blocks*d.blockLen {
		d.done = true
		return radio.Listen()
	}
	block := d.step / d.blockLen
	if d.info.RNG.Bernoulli(d.p * decay.Pow2Neg(block)) {
		return radio.Transmit(degPing{})
	}
	return radio.Listen()
}

func (d *degreeNode) Deliver(step int, msg radio.Message) {
	if d.step < d.blocks*d.blockLen && msg != nil {
		d.counts[d.step/d.blockLen]++
	}
	d.step++
	if d.step >= d.blocks*d.blockLen {
		d.done = true
	}
}

func (d *degreeNode) Done() bool { return d.done }

// RunDegreeEstimate executes one EstimateEffectiveDegree block (Algorithm 6)
// on g, with fixed per-node desire levels p (as if frozen mid-MIS), and
// returns each node's High/Low verdict. C and div default as in Params.
//
// Lemma 11 predicts: d(v) ≥ 1 ⇒ High whp; d(v) ≤ 0.01 ⇒ Low whp; anything
// is allowed in between.
func RunDegreeEstimate(g *graph.Graph, p []float64, params Params, seed uint64) ([]DegreeEstimate, int, error) {
	params = params.withDefaults()
	n := g.N()
	if n == 0 {
		return nil, 0, fmt.Errorf("mis: empty graph")
	}
	if len(p) != n {
		return nil, 0, fmt.Errorf("mis: p has %d entries for %d nodes", len(p), n)
	}
	for v, pv := range p {
		if pv < 0 || pv > 1 {
			return nil, 0, fmt.Errorf("mis: p[%d]=%v outside [0,1]", v, pv)
		}
	}
	spi := decay.StepsPerIteration(n)
	blockLen := params.DegreeC * spi
	blocks := spi + 1
	thresh := float64(params.DegreeC*spi) / params.HighThresholdDiv

	nodes := make([]*degreeNode, n)
	factory := func(info radio.NodeInfo) radio.Protocol {
		nodes[info.Index] = &degreeNode{
			info:     info,
			p:        p[info.Index],
			blockLen: blockLen,
			blocks:   blocks,
			counts:   make([]int, blocks),
		}
		return nodes[info.Index]
	}
	res, err := radio.Run(g, factory, radio.Options{MaxSteps: blocks*blockLen + 1, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	out := make([]DegreeEstimate, n)
	for v, nd := range nodes {
		est := DegreeEstimate{}
		for _, c := range nd.counts {
			if c > est.MaxBlockCount {
				est.MaxBlockCount = c
			}
			if float64(c) >= thresh {
				est.High = true
			}
		}
		var d float64
		for _, u := range g.Neighbors(v) {
			d += p[u]
		}
		est.TrueEffectiveDegree = d
		out[v] = est
	}
	return out, res.Steps, nil
}
