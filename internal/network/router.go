package network

import (
	"repro/internal/routing"
)

// Router state: hot arrays plus cold structs.
//
// The stages touch a few words of each virtual channel every cycle and
// the rest rarely, so the two live apart. The hot part is a set of
// dense, pointer-free arrays owned by the Network and indexed like the
// arenas (arena.go):
//
//   - ring/qHead/qLen: every input VC owns a fixed-capacity ring of
//     BufDepth flit handles (ring[i*depth:(i+1)*depth]) with a head
//     index and a length;
//   - route: per input VC, the allocated output VC's index in outs, or
//     one of the negative route states below;
//   - credits: per output VC, the free slots of the downstream input
//     buffer (the only copy of the count).
//
// The cold part — inputVC and outputVC below — holds what the route,
// allocation, drain-gate and trace paths read: routing candidates, the
// current message, the decision time and output ownership.
//
// The injection pseudo-port does not materialise a message's flits. Its
// VC 0 holds one handle in the first ring entry and counts the flits
// left in qLen: popping clears the head bit and sets the tail bit on the
// last flit, so a message of any length fits in one ring entry.

// Route states of an input VC (route[i] < 0); route[i] >= 0 is the
// allocated output VC.
const (
	// routeNone: the front head flit awaits RC.
	routeNone int32 = -1
	// routePending: routed, awaiting VA.
	routePending int32 = -2
	// routeEject: the front message is at its destination (drained).
	routeEject int32 = -3
	// routeDrop: unroutable; the message is absorbed (drained).
	routeDrop int32 = -4
)

// noSlot marks an output VC without an owning message.
const noSlot = ^uint32(0)

// inputVC is the cold receive-side state of one virtual channel of one
// input port: the routing state of the message whose head is (or will
// be) at the front.
type inputVC struct {
	// curMsg is the message the route state belongs to (set at RC);
	// the queue may be transiently empty while the worm streams
	// through, so the front flit alone cannot identify it.
	curMsg *Message
	// decisionReady is the cycle at which the routing decision
	// becomes available (models the decision time studied in E9).
	decisionReady int64
	// candidates are the admissible outputs from RC (empty with
	// routeDrop: the message is absorbed).
	candidates []routing.Candidate
	// blockedNoted marks that the flight recorder already logged the
	// current credit-blocking episode (one event per episode, not per
	// cycle).
	blockedNoted bool
}

// outputVC is the cold send side of one virtual channel of one output
// port.
type outputVC struct {
	// ownerIn is the input slot (port*vcs + vc; the injection
	// pseudo-port's slots for the local injection stage) holding this
	// output VC, or -1 when free.
	ownerIn int32
	// owner is the slot of the message holding this output VC (noSlot
	// when free); fault surgery uses it to release channels of killed
	// worms.
	owner uint32
	// remaining is the number of flits of the owning message that
	// still have to pass this output (the NAFTA adaptivity
	// criterion).
	remaining int32
}

func (o *outputVC) free() bool { return o.ownerIn < 0 }

// isInjection reports whether input VC i belongs to the injection
// pseudo-port.
func (n *Network) isInjection(i int) bool {
	return i%n.lay.inStride >= n.lay.injBase
}

// front returns the first flit of input VC i; the queue must be
// non-empty. The injection VC keeps its handle at the ring start with
// qHead 0, so the same load serves both kinds.
func (n *Network) front(i int) uint32 {
	return n.ring[i*n.depth+int(n.qHead[i])]
}

// popFront removes and returns the first flit of input VC i (inj: i
// is an injection pseudo-port VC).
func (n *Network) popFront(i int, inj bool) uint32 {
	base := i * n.depth
	h := n.qHead[i]
	f := n.ring[base+int(h)]
	l := n.qLen[i] - 1
	n.qLen[i] = l
	if inj {
		if l > 0 {
			next := f &^ flitHead
			if l == 1 {
				next |= flitTail
			}
			n.ring[base] = next
		}
		return f
	}
	if h++; int(h) == n.depth {
		h = 0
	}
	n.qHead[i] = h
	return f
}

// pushBack appends one flit to link input VC i. Credit flow control
// keeps a link VC at most BufDepth flits deep.
func (n *Network) pushBack(i int, f uint32) {
	t := int(n.qHead[i] + n.qLen[i])
	if t >= n.depth {
		t -= n.depth
	}
	n.ring[i*n.depth+t] = f
	n.qLen[i]++
}

// flitAt returns the k-th live flit of input VC i (cold paths: fault
// surgery and invariant checks).
func (n *Network) flitAt(i, k int) uint32 {
	base := i * n.depth
	if n.isInjection(i) {
		f := n.ring[base]
		if k > 0 {
			f &^= flitHead
			if k == int(n.qLen[i])-1 {
				f |= flitTail
			}
		}
		return f
	}
	p := int(n.qHead[i]) + k
	if p >= n.depth {
		p -= n.depth
	}
	return n.ring[base+p]
}

// frontMsg returns the message of the front flit of input VC i, or
// nil.
func (n *Network) frontMsg(i int) *Message {
	if n.qLen[i] == 0 {
		return nil
	}
	return n.msgs[flitSlot(n.front(i))]
}

// resetRoute clears the route state of input VC i.
func (n *Network) resetRoute(i int) {
	vc := &n.ins[i]
	vc.curMsg = nil
	vc.decisionReady = 0
	// Keep the backing array: routeStage refills it via RouteInto with
	// candidates[:0], so steady-state routing does not allocate.
	vc.candidates = vc.candidates[:0]
	vc.blockedNoted = false
	n.route[i] = routeNone
}

// outPortVC splits the allocated output of input VC i into (port, vc),
// or (-1, -1) before VA.
func (n *Network) outPortVC(i int) (port, vc int) {
	r := int(n.route[i])
	if r < 0 {
		return -1, -1
	}
	local := r % n.lay.outStride
	return local / n.lay.vcs, local % n.lay.vcs
}

// ownerMsg returns the message holding output VC o, or nil when free.
func (n *Network) ownerMsg(o int) *Message {
	if s := n.outs[o].owner; s != noSlot {
		return n.msgs[s]
	}
	return nil
}

// releaseOutput frees output VC o.
func (n *Network) releaseOutput(o int) {
	out := &n.outs[o]
	out.ownerIn = -1
	out.owner = noSlot
	out.remaining = 0
}
