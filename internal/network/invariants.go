package network

import "fmt"

// CheckInvariants validates the internal consistency of the simulator
// state; tests call it periodically. It returns the first violation
// found, or nil.
func (n *Network) CheckInvariants() error {
	lay := &n.lay
	for node := 0; node < lay.nodes; node++ {
		for p := 0; p < lay.inPorts; p++ {
			for v := 0; v < lay.vcs; v++ {
				i := lay.inIdx(node, p, v)
				if p != lay.ports && int(n.qLen[i]) > n.cfg.BufDepth {
					return fmt.Errorf("node %d input (%d,%d): %d flits exceed buffer depth %d",
						node, p, v, n.qLen[i], n.cfg.BufDepth)
				}
				if r := n.route[i]; r >= 0 {
					op, ov := n.outPortVC(i)
					if int(r)/lay.outStride != node {
						return fmt.Errorf("node %d input (%d,%d): allocated output %d belongs to another router",
							node, p, v, r)
					}
					if int(n.outs[r].ownerIn) != p*lay.vcs+v {
						return fmt.Errorf("node %d input (%d,%d): allocation to (%d,%d) not owned back",
							node, p, v, op, ov)
					}
					if n.ownerMsg(int(r)) != n.ins[i].curMsg {
						return fmt.Errorf("node %d output (%d,%d): owner message mismatch",
							node, op, ov)
					}
				}
			}
		}
		for p := 0; p < lay.ports; p++ {
			for v := 0; v < lay.vcs; v++ {
				o := lay.outIdx(node, p, v)
				out := &n.outs[o]
				credits := int(n.credits[o])
				if credits < 0 || credits > n.cfg.BufDepth {
					return fmt.Errorf("node %d output (%d,%d): credits %d out of range",
						node, p, v, credits)
				}
				if d := n.downInput(node, p, v); d >= 0 {
					occ := int(n.qLen[d])
					inFlight := 0
					for _, c := range n.creditQueue {
						if int(c.out) == o {
							inFlight++
						}
					}
					if credits+occ+inFlight != n.cfg.BufDepth {
						return fmt.Errorf("node %d output (%d,%d): credits %d + occupancy %d + in-flight %d != depth %d",
							node, p, v, credits, occ, inFlight, n.cfg.BufDepth)
					}
				}
				if out.owner == noSlot && out.remaining != 0 {
					return fmt.Errorf("node %d output (%d,%d): free but remaining %d",
						node, p, v, out.remaining)
				}
				if out.owner != noSlot && out.free() {
					return fmt.Errorf("node %d output (%d,%d): owner message set but port free",
						node, p, v)
				}
			}
		}
	}
	if err := n.checkSlots(); err != nil {
		return err
	}
	return n.checkActiveSets()
}

// checkSlots verifies the message slot table: every buffered flit and
// every owned output VC names a live slot whose message is in flight,
// and the live slots and the free list together cover the table
// exactly once (so a freed slot has no buffered flit).
func (n *Network) checkSlots() error {
	for i := range n.ins {
		for k := 0; k < int(n.qLen[i]); k++ {
			s := flitSlot(n.flitAt(i, k))
			if int(s) >= len(n.msgs) {
				return fmt.Errorf("input VC %d: flit names slot %d beyond the table (%d)", i, s, len(n.msgs))
			}
			m := n.msgs[s]
			if m == nil {
				return fmt.Errorf("input VC %d: flit names freed slot %d", i, s)
			}
			if m.State != StateInFlight {
				return fmt.Errorf("input VC %d: flit names slot %d of message %d in state %d", i, s, m.ID, m.State)
			}
		}
	}
	for o := range n.outs {
		if s := n.outs[o].owner; s != noSlot && (int(s) >= len(n.msgs) || n.msgs[s] == nil) {
			return fmt.Errorf("output VC %d: owned by dead slot %d", o, s)
		}
	}
	seen := make([]bool, len(n.msgs))
	live := 0
	for s, m := range n.msgs {
		if m == nil {
			continue
		}
		seen[s] = true
		live++
		if m.slot != uint32(s) {
			return fmt.Errorf("slot %d: message %d records slot %d", s, m.ID, m.slot)
		}
	}
	for _, s := range n.freeSlots {
		if int(s) >= len(n.msgs) || seen[s] {
			return fmt.Errorf("free slot %d is live, duplicated or beyond the table", s)
		}
		seen[s] = true
	}
	if live+len(n.freeSlots) != len(n.msgs) {
		return fmt.Errorf("slot table: %d live + %d free != %d slots", live, len(n.freeSlots), len(n.msgs))
	}
	if live != n.inFlight {
		return fmt.Errorf("slot table: %d live slots, %d messages in flight", live, n.inFlight)
	}
	return nil
}

// checkActiveSets verifies that every active-set membership equals its
// defining predicate over the current VC state, and that the injection
// work list covers every node with queued messages. The differential
// test batteries call CheckInvariants every cycle, so any incremental
// maintenance bug in noteInput or a missed noteInput call surfaces
// immediately instead of as a statistics drift.
func (n *Network) checkActiveSets() error {
	lay := &n.lay
	for node := 0; node < lay.nodes; node++ {
		for slot := 0; slot < lay.inStride; slot++ {
			i := node*lay.inStride + slot
			qlen := n.qLen[i]
			r := n.route[i]
			wantRoute := r == routeNone && qlen > 0 && n.front(i)&flitHead != 0
			wantVA := r == routePending
			wantSA := r >= 0 && qlen > 0
			wantDrain := (r == routeEject || r == routeDrop) && qlen > 0
			if got := n.routeSet.has(node, slot); got != wantRoute {
				return fmt.Errorf("node %d slot %d: routeSet membership %v, predicate %v", node, slot, got, wantRoute)
			}
			if got := n.vaSet.has(node, slot); got != wantVA {
				return fmt.Errorf("node %d slot %d: vaSet membership %v, predicate %v", node, slot, got, wantVA)
			}
			if got := n.saSet.has(node, slot); got != wantSA {
				return fmt.Errorf("node %d slot %d: saSet membership %v, predicate %v", node, slot, got, wantSA)
			}
			if got := n.drainSet.has(node, slot); got != wantDrain {
				return fmt.Errorf("node %d slot %d: drainSet membership %v, predicate %v", node, slot, got, wantDrain)
			}
		}
		// Injection bits are allowed to be stale-set (a faulty node's
		// queue is nulled without clearing its bit; injectStage skips it),
		// but a node with queued messages must never be missing.
		if len(n.injQ[node]) > 0 && n.injNodes.bits[node>>6]&(1<<(node&63)) == 0 {
			return fmt.Errorf("node %d: %d queued injections but not in injNodes", node, len(n.injQ[node]))
		}
	}
	return nil
}
