package network

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The link tables are the network's only source of adjacency: every
// entry must agree with the graph's Neighbor/PortTo answer, and border
// or unconnected ports must read -1.
func TestLinkTablesMatchGraph(t *testing.T) {
	irr, err := topology.RandomIrregular(24, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []topology.Graph{
		topology.NewMesh(5, 4),
		topology.NewTorus(4, 3),
		topology.NewHypercube(4),
		irr,
	}
	for _, g := range graphs {
		t.Run(g.Name(), func(t *testing.T) {
			n := New(Config{Graph: g, Algorithm: routing.NewUpDown(g)})
			lay := &n.lay
			unconnected := 0
			for node := 0; node < g.Nodes(); node++ {
				for p := 0; p < g.Ports(); p++ {
					link := node*g.Ports() + p
					down, up := n.downIn[link], n.upOut[link]
					nb := g.Neighbor(topology.NodeID(node), p)
					if nb == topology.Invalid {
						unconnected++
						if down != -1 || up != -1 {
							t.Fatalf("node %d port %d unconnected: downIn %d upOut %d, want -1", node, p, down, up)
						}
						if n.downNode(node, p) != topology.Invalid || n.downInput(node, p, 0) != -1 {
							t.Fatalf("node %d port %d unconnected: accessors report a neighbour", node, p)
						}
						continue
					}
					bp, ok := g.PortTo(nb, topology.NodeID(node))
					if !ok {
						t.Fatalf("node %d port %d: neighbour %d has no port back", node, p, nb)
					}
					if want := int32(lay.inIdx(int(nb), bp, 0)); down != want {
						t.Fatalf("node %d port %d: downIn %d, want %d", node, p, down, want)
					}
					if want := int32(lay.outIdx(int(nb), bp, 0)); up != want {
						t.Fatalf("node %d port %d: upOut %d, want %d", node, p, up, want)
					}
					if got := n.downNode(node, p); got != nb {
						t.Fatalf("node %d port %d: downNode %d, want %d", node, p, got, nb)
					}
					if want, _ := g.PortTo(topology.NodeID(node), nb); n.portTo(topology.NodeID(node), nb) != want {
						t.Fatalf("node %d: portTo(%d) = %d, want %d", node, nb, n.portTo(topology.NodeID(node), nb), want)
					}
				}
			}
			_, isMesh := g.(*topology.Mesh)
			_, isIrr := g.(*topology.Irregular)
			if (isMesh || isIrr) && unconnected == 0 {
				t.Fatal("expected border or unconnected ports")
			}
		})
	}
}

// A long run with timed node faults (killing worms in flight) and XY
// routing (dropping unroutable messages) recycles message slots
// through every exit path. The slot table must stay exactly as large
// as the peak number of messages in flight, the slot invariants must
// hold every cycle, and a warm step on the recycled table must still
// not allocate.
func TestSlotTableBoundedUnderKillsAndDrops(t *testing.T) {
	m := topology.NewMesh(8, 8)
	nafta := routing.NewNAFTA(m)
	n := New(Config{Graph: m, Algorithm: routing.NewXY(m), BufDepth: 2, VCs: nafta.NumVCs()})
	rng := rand.New(rand.NewSource(11))
	faults := fault.NewSet()
	faultAt := map[int]topology.NodeID{300: m.Node(3, 3), 700: m.Node(5, 2), 1100: m.Node(1, 6)}
	peak := 0
	for cycle := 0; cycle < 2000; cycle++ {
		if nd, ok := faultAt[cycle]; ok {
			faults.FailNode(nd)
			n.ApplyFaults(faults.Clone())
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d after fault: %v", cycle, err)
			}
		}
		if cycle < 1600 {
			for k := 0; k < 3; k++ {
				src := topology.NodeID(rng.Intn(m.Nodes()))
				dst := topology.NodeID(rng.Intn(m.Nodes()))
				if src != dst && !faults.NodeFaulty(src) {
					n.Inject(src, dst, 2+rng.Intn(10))
				}
			}
		}
		// Slots are taken only in the inject stage, before anything
		// drains, so the in-step peak of live messages is the in-flight
		// count plus the messages materialised this step.
		inFlight, queued := n.InFlight(), n.Queued()
		n.Step()
		if live := inFlight + queued - n.Queued(); live > peak {
			peak = live
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	st := n.Stats()
	if st.Killed == 0 || st.Dropped == 0 || st.Delivered == 0 {
		t.Fatalf("run did not exercise every exit path: %+v", st)
	}
	if len(n.msgs) != peak {
		t.Fatalf("slot table holds %d slots, peak in flight was %d", len(n.msgs), peak)
	}
	if len(n.freeSlots)+n.InFlight() != len(n.msgs) {
		t.Fatalf("%d free + %d in flight != %d slots", len(n.freeSlots), n.InFlight(), len(n.msgs))
	}
	// Steady state with recycled slots. XY's Route allocates its
	// answer, so swap in NAFTA (cold, on the drained network) before
	// measuring; then refill, warm, and a step must not touch the heap.
	if !n.Drain(5000) {
		t.Fatal("network did not drain")
	}
	if err := n.Reconfigure(nafta, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*m.Nodes(); i++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		dst := topology.NodeID(rng.Intn(m.Nodes()))
		if src != dst && !faults.NodeFaulty(src) {
			n.Inject(src, dst, 8)
		}
	}
	n.Run(60)
	avg := testing.AllocsPerRun(50, func() { n.Step() })
	if n.InFlight() == 0 {
		t.Fatal("network drained during the measurement window")
	}
	if avg > 0.1 {
		t.Fatalf("Step allocates %.2f objects/op with recycled slots, want 0", avg)
	}
}
