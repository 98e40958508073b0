package radio

import (
	"testing"

	"repro/internal/gen"
)

func TestWakeAtValidation(t *testing.T) {
	g := gen.Path(3)
	factory := func(info NodeInfo) Protocol { return newScriptNode(0, nil) }
	if _, err := Run(g, factory, Options{MaxSteps: 1, WakeAt: []int{0}}); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

// localNode acts on its *local* clock (number of Deliver calls seen), the
// way real protocols do: it transmits at local steps in transmitAt and halts
// after lastLocal local steps.
type localNode struct {
	transmitAt map[int]Message
	heard      map[int]Message // keyed by global step
	local      int
	lastLocal  int
}

func newLocalNode(lastLocal int, transmitAt map[int]Message) *localNode {
	return &localNode{transmitAt: transmitAt, heard: map[int]Message{}, lastLocal: lastLocal}
}

func (l *localNode) Act(step int) Action {
	if msg, ok := l.transmitAt[l.local]; ok {
		return Transmit(msg)
	}
	return Listen()
}

func (l *localNode) Deliver(step int, msg Message) {
	if msg != nil {
		l.heard[step] = msg
	}
	l.local++
}

func (l *localNode) Done() bool { return l.local > l.lastLocal }

func TestDormantNodesNeitherSendNorReceive(t *testing.T) {
	g := gen.Path(2)
	nodes := make([]*localNode, 2)
	factory := func(info NodeInfo) Protocol {
		// Each node transmits at its LOCAL step 0.
		nodes[info.Index] = newLocalNode(6, map[int]Message{0: info.Index})
		return nodes[info.Index]
	}
	// Node 1 sleeps through global steps 0..2 (its local step 0 is global 3).
	_, err := Run(g, factory, Options{MaxSteps: 12, WakeAt: []int{0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 was dormant during node 0's transmission at global step 0.
	if len(nodes[1].heard) != 0 {
		t.Fatalf("dormant node heard %v", nodes[1].heard)
	}
	// Node 0 hears node 1's local step 0, which fires at global step 3.
	if nodes[0].heard[3] != 1 {
		t.Fatalf("node 0 heard %v, want node 1's message at global step 3", nodes[0].heard)
	}
	// The dormant node's local clock was frozen: after waking at 3 and
	// running to global step 11, it advanced exactly 9 local steps.
	if nodes[1].local > 9 {
		t.Fatalf("dormant node's clock ran: local=%d", nodes[1].local)
	}
}

func TestDormantNodeKeepsRunAlive(t *testing.T) {
	// Node 0 finishes after 3 local steps, but node 1 sleeps until step 10;
	// the run must not be declared AllDone before node 1 wakes and runs.
	g := gen.Path(2)
	factory := func(info NodeInfo) Protocol {
		return newLocalNode(2, nil)
	}
	res, err := Run(g, factory, Options{MaxSteps: 50, WakeAt: []int{0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatal("run should finish once both nodes complete")
	}
	if res.Steps < 13 {
		t.Fatalf("run ended at %d, before the late waker ran its 3 local steps", res.Steps)
	}
}
