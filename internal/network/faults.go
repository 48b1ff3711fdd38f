package network

import (
	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// ApplyFaults injects a new fault state into the running network,
// honouring the paper's fault model:
//
//   - messages whose worm currently touches a failed router or spans a
//     failed link are removed and counted as Killed (assumption iv: in
//     a direct network such messages are sent to the nearest home link
//     and reinjected by a light-weight protocol; the simulator models
//     the removal and excludes these messages from latency stats);
//   - messages that merely hold a routing decision across a now-dead
//     link but have not moved any flit yet are re-routed instead;
//   - the routing algorithm's diagnosis (state propagation) runs to
//     its fixpoint before the next cycle (assumption iv again), via
//     Algorithm.UpdateFaults;
//   - all pending, unallocated routing decisions are recomputed under
//     the new fault state.
//
// The fault set f replaces the previous one; use cumulative sets for
// incremental fault sequences.
func (n *Network) ApplyFaults(f *fault.Set) {
	prev := n.faults
	n.faults = f
	if n.rec != nil {
		// Flight-record the newly raised faults (node faults Arg=0,
		// link faults Arg=1 with Node/Port naming one endpoint).
		for _, nd := range f.FaultyNodes() {
			if !prev.NodeFaulty(nd) {
				n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KFaultRaised,
					Node: int32(nd), Msg: -1, Port: -1, VC: -1})
			}
		}
		for _, l := range f.FaultyLinks() {
			if !prev.LinkFaulty(l.A, l.B) {
				n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KFaultRaised,
					Node: int32(l.A), Msg: -1, Port: int16(n.portTo(l.A, l.B)), VC: -1, Arg: 1})
			}
		}
	}

	n.rebuildDead()

	// killed is indexed by message slot; every killed message is in
	// flight, so it holds a live slot.
	killed := make([]bool, len(n.msgs))
	nkilled := 0
	kill := func(s uint32) {
		if !killed[s] {
			killed[s] = true
			nkilled++
		}
	}
	lay := &n.lay

	// 1. Messages touching failed routers (buffered flits or queued at
	// a failed source).
	for node := 0; node < lay.nodes; node++ {
		if !n.isDead(node) {
			continue
		}
		base := node * lay.inStride
		for i := base; i < base+lay.inStride; i++ {
			for k := 0; k < int(n.qLen[i]); k++ {
				kill(flitSlot(n.flitAt(i, k)))
			}
		}
		for _, m := range n.injQ[node] {
			m.State = StateKilled
			m.DoneTime = n.now
			n.stats.Killed++
			n.queued--
		}
		n.injQ[node] = nil
	}

	// 2. Worms actively crossing a dead component: an output VC with
	// an owner that has already sent at least one flit (remaining <
	// Length) carries a worm that spans the attached link; if the
	// sending router, the link or the receiving router is dead, that
	// worm is cut.
	for node := 0; node < lay.nodes; node++ {
		for p := 0; p < lay.ports; p++ {
			down := n.downNode(node, p)
			for v := 0; v < lay.vcs; v++ {
				out := &n.outs[lay.outIdx(node, p, v)]
				if out.owner == noSlot || int(out.remaining) >= n.msgs[out.owner].Hdr.Length {
					continue
				}
				dead := n.isDead(node) || down == topology.Invalid ||
					n.isDead(int(down)) || f.LinkFaulty(topology.NodeID(node), down)
				if dead {
					kill(out.owner)
				}
			}
		}
	}

	// 2b. Reconfiguration flush: worms holding resources whose channel
	// ordering this event is about to invalidate — e.g. maze escape
	// worms, whose up*/down* orientation is re-rooted per fault event —
	// are removed like worms touching the failure itself; the recovery
	// protocol of assumption iv reinjects them. Letting them survive
	// could close a wait cycle across the two orientations
	// (routing.ReconfigFlusher). Every in-flight worm has at least one
	// buffered flit, so sweeping the input queues sees each one.
	if flusher, ok := n.alg.(routing.ReconfigFlusher); ok {
		for i := range n.ins {
			for k := 0; k < int(n.qLen[i]); k++ {
				s := flitSlot(n.flitAt(i, k))
				if !killed[s] && flusher.FlushOnFault(&n.msgs[s].Hdr) {
					kill(s)
				}
			}
		}
	}

	// 3. Remove killed worms everywhere and account for them, in slot
	// order.
	var kept []uint32
	for i := range n.ins {
		l := int(n.qLen[i])
		if l == 0 {
			continue
		}
		if n.isInjection(i) {
			// One message per injection VC: all of it goes or stays.
			if killed[flitSlot(n.front(i))] {
				n.qLen[i], n.qHead[i] = 0, 0
			}
			continue
		}
		kept = kept[:0]
		for k := 0; k < l; k++ {
			if fl := n.flitAt(i, k); !killed[flitSlot(fl)] {
				kept = append(kept, fl)
			}
		}
		copy(n.ring[i*n.depth:], kept)
		n.qHead[i], n.qLen[i] = 0, int32(len(kept))
	}
	for s, k := range killed {
		if m := n.msgs[s]; k && m.State == StateInFlight {
			m.State = StateKilled
			m.DoneTime = n.now
			n.stats.Killed++
			// A worm cut while its head end was already being absorbed
			// at the destination has delivered some flits; back them
			// out — killed messages are excluded from the statistics
			// wholesale (assumption iv).
			n.stats.FlitsDelivered -= int64(m.flitsEjected)
			n.inFlight--
			if n.epochs != nil {
				n.epochs.ReleaseEpoch(m.Hdr.Epoch)
			}
			if n.rec != nil {
				n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KMsgKilled,
					Node: int32(m.Hdr.Src), Msg: m.ID, Port: -1, VC: -1})
			}
		}
	}

	// 4. Release outputs owned by killed worms; re-route allocations
	// that would cross a dead link but have not moved a flit yet;
	// recompute credits from the surviving buffer occupancy.
	for o := range n.outs {
		if s := n.outs[o].owner; s != noSlot && killed[s] {
			n.releaseOutput(o)
		}
	}
	for node := 0; node < lay.nodes; node++ {
		for slot := 0; slot < lay.inStride; slot++ {
			i := node*lay.inStride + slot
			r := n.route[i]
			if r < 0 {
				// Unallocated: recompute the decision under the
				// new fault state next cycle — unless the worm is
				// already partially absorbed (the head flit is
				// gone): clearing the route state of a headless
				// worm would leave routeStage unable to ever route
				// it again and wedge the input VC.
				if (r == routePending || r == routeDrop) && (n.qLen[i] == 0 || n.front(i)&flitHead != 0) {
					n.resetRoute(i)
				}
				continue
			}
			cur := n.ins[i].curMsg
			if cur == nil || killed[cur.slot] {
				// The worm this allocation belonged to is gone.
				n.resetRoute(i)
				continue
			}
			p, _ := n.outPortVC(i)
			down := n.downNode(node, p)
			dead := down == topology.Invalid || f.LinkFaulty(topology.NodeID(node), down) || n.isDead(int(down))
			if dead {
				if int(n.outs[r].remaining) == cur.Hdr.Length {
					// Nothing sent yet: safe to re-route.
					n.releaseOutput(int(r))
					n.resetRoute(i)
				}
				// Otherwise the worm already spans the link and was
				// killed in step 2.
			}
		}
	}
	// Every reference to a killed message is gone: recycle its slot.
	for s, k := range killed {
		if k {
			n.freeSlot(uint32(s))
		}
	}
	// Pending credit returns are superseded by the from-scratch
	// recomputation.
	n.creditQueue = n.creditQueue[:0]
	n.recomputeCredits()
	// Surgery rewrote VC state in place all over the arenas: re-derive
	// every active-set membership from scratch (cold path).
	n.rebuildActiveSets()

	// 5. Diagnosis phase: propagate the new fault state to a fixpoint —
	// or, when a failover plane is attached, let it resolve the fault:
	// a covered class flips a precompiled engine in (the fixpoint ran
	// at bundle-load time), an uncovered one falls back to the same
	// live recompute this branch would run.
	if n.cfg.Failover != nil {
		if n.cfg.Failover.OnFault(f) && n.rec != nil {
			n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KFailoverFlip,
				Node: -1, Msg: -1, Port: -1, VC: -1})
		}
	} else {
		n.alg.UpdateFaults(f)
	}
	if n.rec != nil {
		n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KFaultPropagated,
			Node: -1, Msg: -1, Port: -1, VC: -1, Arg: int32(nkilled)})
	}
}

// recomputeCredits rebuilds every output's credit count from the
// actual downstream buffer occupancy (used after fault surgery).
func (n *Network) recomputeCredits() {
	lay := &n.lay
	for node := 0; node < lay.nodes; node++ {
		for p := 0; p < lay.ports; p++ {
			for v := 0; v < lay.vcs; v++ {
				if d := n.downInput(node, p, v); d >= 0 {
					n.credits[lay.outIdx(node, p, v)] = int32(n.depth) - n.qLen[d]
				}
			}
		}
	}
}
