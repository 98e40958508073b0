package radio

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// scriptNode transmits according to a fixed per-step script and records
// everything it hears.
type scriptNode struct {
	transmitAt map[int]Message
	heard      map[int]Message
	lastStep   int
	step       int
}

func newScriptNode(lastStep int, transmitAt map[int]Message) *scriptNode {
	return &scriptNode{transmitAt: transmitAt, heard: map[int]Message{}, lastStep: lastStep}
}

func (s *scriptNode) Act(step int) Action {
	s.step = step
	if msg, ok := s.transmitAt[step]; ok {
		return Transmit(msg)
	}
	return Listen()
}

func (s *scriptNode) Deliver(step int, msg Message) {
	if msg != nil {
		s.heard[step] = msg
	}
}

func (s *scriptNode) Done() bool { return s.step >= s.lastStep }

func TestSingleTransmitterDelivers(t *testing.T) {
	g := gen.Star(4) // center 0, leaves 1..3
	nodes := make([]*scriptNode, 4)
	factory := func(info NodeInfo) Protocol {
		var script map[int]Message
		if info.Index == 0 {
			script = map[int]Message{0: "hello"}
		}
		nodes[info.Index] = newScriptNode(1, script)
		return nodes[info.Index]
	}
	res, err := Run(g, factory, Options{MaxSteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 3; v++ {
		if nodes[v].heard[0] != "hello" {
			t.Fatalf("leaf %d did not hear the broadcast: %v", v, nodes[v].heard)
		}
	}
	if len(nodes[0].heard) != 0 {
		t.Fatal("transmitter should hear nothing")
	}
	if res.Deliveries != 3 || res.Transmissions != 1 || res.Collisions != 0 {
		t.Fatalf("stats %+v", res)
	}
}

func TestTwoTransmittersCollide(t *testing.T) {
	g := gen.Star(4)
	nodes := make([]*scriptNode, 4)
	factory := func(info NodeInfo) Protocol {
		var script map[int]Message
		if info.Index == 1 || info.Index == 2 {
			script = map[int]Message{0: info.Index}
		}
		nodes[info.Index] = newScriptNode(1, script)
		return nodes[info.Index]
	}
	res, err := Run(g, factory, Options{MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes[0].heard) != 0 {
		t.Fatalf("center heard %v despite collision (no collision detection)", nodes[0].heard)
	}
	// Leaf 3 listens; its only transmitting neighbor is the center — which
	// is silent — so it hears nothing either.
	if len(nodes[3].heard) != 0 {
		t.Fatal("leaf 3 should hear nothing (transmitters are not its neighbors? they are not)")
	}
	if res.Collisions != 1 {
		t.Fatalf("want 1 collision at the center, got %d", res.Collisions)
	}
}

func TestNonNeighborDoesNotHear(t *testing.T) {
	g := gen.Path(3) // 0-1-2
	nodes := make([]*scriptNode, 3)
	factory := func(info NodeInfo) Protocol {
		var script map[int]Message
		if info.Index == 0 {
			script = map[int]Message{0: "x"}
		}
		nodes[info.Index] = newScriptNode(1, script)
		return nodes[info.Index]
	}
	if _, err := Run(g, factory, Options{MaxSteps: 2}); err != nil {
		t.Fatal(err)
	}
	if nodes[1].heard[0] != "x" {
		t.Fatal("neighbor 1 should hear")
	}
	if len(nodes[2].heard) != 0 {
		t.Fatal("node 2 is not adjacent to the transmitter and must hear nothing")
	}
}

func TestTransmitterWithTransmittingNeighborStillSends(t *testing.T) {
	// 0-1-2 path; 0 and 1 transmit simultaneously. 2 neighbors only 1 → hears 1's message.
	g := gen.Path(3)
	nodes := make([]*scriptNode, 3)
	factory := func(info NodeInfo) Protocol {
		var script map[int]Message
		if info.Index == 0 || info.Index == 1 {
			script = map[int]Message{0: info.Index}
		}
		nodes[info.Index] = newScriptNode(1, script)
		return nodes[info.Index]
	}
	if _, err := Run(g, factory, Options{MaxSteps: 2}); err != nil {
		t.Fatal(err)
	}
	if nodes[2].heard[0] != 1 {
		t.Fatalf("node 2 should hear node 1's message, heard %v", nodes[2].heard)
	}
	if len(nodes[0].heard) != 0 || len(nodes[1].heard) != 0 {
		t.Fatal("transmitters hear nothing")
	}
}

func TestDoneNodesGoSilent(t *testing.T) {
	g := gen.Path(2)
	// Node 0 would transmit at step 1 but halts after step 0.
	var n1 *scriptNode
	factory := func(info NodeInfo) Protocol {
		if info.Index == 0 {
			return newScriptNode(0, map[int]Message{1: "late"})
		}
		n1 = newScriptNode(5, nil)
		return n1
	}
	if _, err := Run(g, factory, Options{MaxSteps: 4}); err != nil {
		t.Fatal(err)
	}
	if len(n1.heard) != 0 {
		t.Fatalf("halted node transmitted: %v", n1.heard)
	}
}

func TestRunStopsWhenAllDone(t *testing.T) {
	g := gen.Clique(5)
	factory := func(info NodeInfo) Protocol { return newScriptNode(2, nil) }
	res, err := Run(g, factory, Options{MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatal("expected AllDone")
	}
	if res.Steps > 4 {
		t.Fatalf("ran %d steps, expected early stop", res.Steps)
	}
}

func TestRunErrors(t *testing.T) {
	g := gen.Path(2)
	if _, err := Run(g, func(NodeInfo) Protocol { return newScriptNode(0, nil) }, Options{}); err == nil {
		t.Fatal("want error for MaxSteps=0")
	}
	if _, err := Run(graph.New(0), func(NodeInfo) Protocol { return newScriptNode(0, nil) }, Options{MaxSteps: 1}); err == nil {
		t.Fatal("want error for empty graph")
	}
	if _, err := Run(g, func(NodeInfo) Protocol { return nil }, Options{MaxSteps: 1}); err == nil {
		t.Fatal("want error for nil protocol")
	}
	pop := &perNode{factory: func(NodeInfo) Protocol { return newScriptNode(0, nil) }}
	if _, err := RunPopulation(nil, pop, Options{MaxSteps: 1}); err == nil {
		t.Fatal("want error for a population run without a topology")
	}
	if _, err := RunPopulation(g.Freeze(), pop, Options{MaxSteps: 1, Topology: staticCSR{g.Freeze()}}); err == nil {
		t.Fatal("want error for a snapshot beside Options.Topology")
	}
}

func TestNodeInfoEstimates(t *testing.T) {
	g := gen.Path(8)
	var infos []NodeInfo
	factory := func(info NodeInfo) Protocol {
		infos = append(infos, info)
		return newScriptNode(0, nil)
	}
	if _, err := Run(g, factory, Options{MaxSteps: 1}); err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.N != 8 {
			t.Fatalf("bad defaults %+v", info)
		}
		if info.RNG == nil {
			t.Fatal("nil RNG")
		}
	}
	// Overrides pass through unchanged.
	infos = nil
	_, err := Run(g, factory, Options{MaxSteps: 1, N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].N != 100 {
		t.Fatalf("overrides ignored: %+v", infos[0])
	}
}

// randomNode transmits with probability 1/2 each step, recording a transcript
// hash of everything it hears — used for the engine differential test.
type randomNode struct {
	info  NodeInfo
	until int
	step  int
	hash  uint64
}

func (r *randomNode) Act(step int) Action {
	r.step = step
	if r.info.RNG.Bernoulli(0.5) {
		return Transmit(int64(r.info.Index*1000 + step))
	}
	return Listen()
}

func (r *randomNode) Deliver(step int, msg Message) {
	if msg != nil {
		v, _ := msg.(int64)
		r.hash = r.hash*1000003 + uint64(v) + uint64(step)
	}
}

func (r *randomNode) Done() bool { return r.step >= r.until }

// hashCapture copies the node's transcript hash out when it finishes.
type hashCapture struct {
	*randomNode
	out *uint64
}

func (h *hashCapture) Deliver(step int, msg Message) {
	h.randomNode.Deliver(step, msg)
	*h.out = h.randomNode.hash
}

func TestOnStepCallback(t *testing.T) {
	g := gen.Clique(3)
	var steps []StepStats
	factory := func(info NodeInfo) Protocol {
		var script map[int]Message
		if info.Index == 0 {
			script = map[int]Message{0: "a", 1: "b"}
		}
		return newScriptNode(1, script)
	}
	_, err := Run(g, factory, Options{MaxSteps: 2, OnStep: func(s StepStats) { steps = append(steps, s) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("got %d step callbacks", len(steps))
	}
	if steps[0].Transmits != 1 || steps[0].Deliveries != 2 {
		t.Fatalf("step 0 stats %+v", steps[0])
	}
}
