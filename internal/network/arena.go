package network

import (
	"math/bits"

	"repro/internal/topology"
)

// Flat arenas, link tables, the message slot table and active-set
// stepping.
//
// All router state lives in network-owned arenas indexed by
// precomputed strides (layout): input VC i = node*inStride + port*vcs
// + vc, output VC o = node*outStride + port*vcs + vc. Per-VC state is
// split into dense hot arrays and cold structs (router.go), so a 64x64
// step walks a few L2-sized, pointer-free arrays.
//
// Flits are uint32 handles (message.go) that name a slot of the
// message slot table msgs. A slot is taken when a message leaves its
// injection queue and returns to the free list when the message is
// delivered, dropped or killed; the table therefore grows only to the
// peak number of messages in flight, and a freed slot never has a
// buffered flit (CheckInvariants).
//
// Adjacency is read from two link tables built once by New, indexed by
// link = node*ports + port: downIn[link] is the input VC (VC 0) the
// output port feeds, upOut[link] the upstream output VC (VC 0) feeding
// the input port; -1 marks a border or unconnected port. A dead-node
// bitset, rebuilt by ApplyFaults, gates every stage loop.
//
// On top of the arenas, four incrementally maintained active sets
// track exactly the (node, port, VC) slots with live work per stage,
// so an idle VC costs nothing rather than a scan — per-cycle cost
// follows in-flight work, not topology size.
//
// Membership is derived state. Every mutation of an input VC's
// route state or queue funnels through noteInput, which re-evaluates
// the four predicates for that one slot:
//
//   route: route == routeNone && qLen > 0 && front is a head  (awaiting RC)
//   va:    route == routePending                             (awaiting VA)
//   sa:    route >= 0 && qLen > 0                            (flits to switch)
//   drain: route is routeEject or routeDrop && qLen > 0
//
// The decisionReady gate is deliberately NOT part of the predicates —
// it is time-dependent, and stages check it live (a delayed decision
// stays in its set until ready, which costs one skip per cycle).
//
// Determinism: a vcSet iterates members in ascending (node, slot)
// order via trailing-zero bit scans — exactly the order of the nested
// serial loops it replaces — and every stage's skip conditions equal
// its set's membership predicate, so processing only active slots is
// behaviourally identical to scanning everything. Stage processing may
// remove the slot being visited from the set it is iterating (the
// iteration snapshots each word first) and add slots to *other* sets,
// but never adds to the set being iterated; that property keeps the
// snapshot iteration exact.
//
// Parallelism: all add/remove paths executed inside parallel compute
// phases touch only node-owned mask words and the node's summary-bit
// word. Summary words are shared by 64 consecutive nodes, so shard
// boundaries are aligned to multiples of 64 (initParallel) and no two
// workers ever write the same word.

// layout precomputes the arena strides of a network: input VCs are
// indexed node*inStride + port*vcs + vc with port Ports() being the
// injection pseudo-port; output VCs node*outStride + port*vcs + vc for
// link ports only.
type layout struct {
	nodes   int
	ports   int // link ports; the injection pseudo-port is index ports
	vcs     int
	inPorts int // ports+1
	// inStride/outStride are the per-node slot counts.
	inStride  int
	outStride int
	// injBase is the first injection pseudo-port slot (ports*vcs).
	injBase int
	// portOf/vcOf split a slot (port*vcs + vc) without a divide; they
	// serve output slots too (outStride <= inStride).
	portOf []int32
	vcOf   []int32
}

func newLayout(nodes, ports, vcs int) layout {
	if vcs > 64 {
		// switchNode extracts a per-port VC mask from the SA set's words,
		// which requires a port's VC range to span at most two words.
		panic("network: more than 64 VCs per port is not supported")
	}
	l := layout{
		nodes: nodes, ports: ports, vcs: vcs, inPorts: ports + 1,
		inStride: (ports + 1) * vcs, outStride: ports * vcs,
		injBase: ports * vcs,
	}
	if l.nodes*l.inStride >= 1<<31 {
		panic("network: too many virtual channels for 32-bit arena indices")
	}
	l.portOf = make([]int32, l.inStride)
	l.vcOf = make([]int32, l.inStride)
	for slot := range l.portOf {
		l.portOf[slot], l.vcOf[slot] = int32(slot/vcs), int32(slot%vcs)
	}
	return l
}

// inIdx returns the ins-arena index of input (node, port, vc).
func (l *layout) inIdx(node, port, vc int) int {
	return node*l.inStride + port*l.vcs + vc
}

// outIdx returns the outs-arena index of output (node, port, vc).
func (l *layout) outIdx(node, port, vc int) int {
	return node*l.outStride + port*l.vcs + vc
}

// Stage indices of the four per-stage active sets, which share one
// word arena (newStageSets).
const (
	stRoute = iota
	stVA
	stSA
	stDrain
	numStages
)

// vcSet is a two-level bitset over (node, slot) pairs: per-node mask
// words (wpn words each, node-owned) and a node-level summary bitset.
// The four stage sets interleave their mask words per node in one
// shared arena (stride = numStages*wpn words per node), so noteInput's
// four membership updates for one slot touch a single cache line. All
// operations are O(1) except size; iteration visits members in
// ascending (node, slot) order.
type vcSet struct {
	wpn      int      // mask words per node
	stride   int      // words per node in the shared arena
	off      int      // this set's first word within a node's stride
	words    []uint64 // shared arena: nodes * stride
	nodeBits []uint64 // bit n set iff node n has any member
}

// newStageSets builds the four interleaved stage sets.
func newStageSets(nodes, slots int) [numStages]vcSet {
	wpn := (slots + 63) / 64
	words := make([]uint64, nodes*numStages*wpn)
	var sets [numStages]vcSet
	for st := range sets {
		sets[st] = vcSet{
			wpn: wpn, stride: numStages * wpn, off: st * wpn,
			words:    words,
			nodeBits: make([]uint64, (nodes+63)/64),
		}
	}
	return sets
}

// base returns the index of node's first mask word.
func (s *vcSet) base(node int) int { return node*s.stride + s.off }

// set makes (node, slot) a member iff member, updating the summary
// bit on transitions.
func (s *vcSet) set(node, slot int, member bool) {
	w := &s.words[s.base(node)+slot>>6]
	bit := uint64(1) << (slot & 63)
	if member {
		if *w&bit == 0 {
			*w |= bit
			s.nodeBits[node>>6] |= 1 << (node & 63)
		}
	} else if *w&bit != 0 {
		*w &^= bit
		if *w == 0 && s.nodeEmpty(node) {
			s.nodeBits[node>>6] &^= 1 << (node & 63)
		}
	}
}

// nodeEmpty reports whether node has no member.
func (s *vcSet) nodeEmpty(node int) bool {
	base := s.base(node)
	for k := 0; k < s.wpn; k++ {
		if s.words[base+k] != 0 {
			return false
		}
	}
	return true
}

// has reports membership of (node, slot).
func (s *vcSet) has(node, slot int) bool {
	return s.words[s.base(node)+slot>>6]&(1<<(slot&63)) != 0
}

// clear empties the set.
func (s *vcSet) clear() {
	for node := 0; node*s.stride < len(s.words); node++ {
		base := s.base(node)
		for k := 0; k < s.wpn; k++ {
			s.words[base+k] = 0
		}
	}
	for i := range s.nodeBits {
		s.nodeBits[i] = 0
	}
}

// size counts the members (peak sampling, every 64 cycles; no global
// counter is maintained because parallel shards would race on it).
func (s *vcSet) size() int {
	t := 0
	for node := 0; node*s.stride < len(s.words); node++ {
		base := s.base(node)
		for k := 0; k < s.wpn; k++ {
			t += bits.OnesCount64(s.words[base+k])
		}
	}
	return t
}

// forEach calls fn for every member with lo <= node < hi, in ascending
// (node, slot) order. Each summary and mask word is snapshotted before
// scanning, so fn may remove the visited slot (or any slot of the
// visited node) and may add members to other sets — but must not add
// members to THIS set. For parallel callers, lo must be 64-aligned and
// hi either 64-aligned or the total node count.
func (s *vcSet) forEach(lo, hi int, fn func(node, slot int)) {
	if lo >= hi {
		return
	}
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		nw := s.nodeBits[wi]
		for nw != 0 {
			node := wi<<6 + bits.TrailingZeros64(nw)
			nw &= nw - 1
			base := s.base(node)
			for k := 0; k < s.wpn; k++ {
				mw := s.words[base+k]
				for mw != 0 {
					slot := k<<6 + bits.TrailingZeros64(mw)
					mw &= mw - 1
					fn(node, slot)
				}
			}
		}
	}
}

// forEachNode calls fn for every node with at least one member in
// [lo, hi), ascending. Same snapshot/alignment contract as forEach.
func (s *vcSet) forEachNode(lo, hi int, fn func(node int)) {
	if lo >= hi {
		return
	}
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		nw := s.nodeBits[wi]
		for nw != 0 {
			node := wi<<6 + bits.TrailingZeros64(nw)
			nw &= nw - 1
			fn(node)
		}
	}
}

// nodeSet is a plain node-level bitset (injection work list).
type nodeSet struct {
	bits []uint64
}

func newNodeSet(nodes int) nodeSet {
	return nodeSet{bits: make([]uint64, (nodes+63)/64)}
}

func (s *nodeSet) set(node int, member bool) {
	if member {
		s.bits[node>>6] |= 1 << (node & 63)
	} else {
		s.bits[node>>6] &^= 1 << (node & 63)
	}
}

func (s *nodeSet) clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
}

func (s *nodeSet) size() int {
	t := 0
	for _, w := range s.bits {
		t += bits.OnesCount64(w)
	}
	return t
}

// forEach visits members ascending; the word is snapshotted, so fn may
// clear the visited node's bit.
func (s *nodeSet) forEach(fn func(node int)) {
	for wi, w := range s.bits {
		for w != 0 {
			node := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			fn(node)
		}
	}
}

// buildLinkTables fills downIn and upOut from the graph — the only
// place the network asks the topology for adjacency.
func (n *Network) buildLinkTables() {
	lay := &n.lay
	n.downIn = make([]int32, lay.nodes*lay.ports)
	n.upOut = make([]int32, lay.nodes*lay.ports)
	for node := 0; node < lay.nodes; node++ {
		for p := 0; p < lay.ports; p++ {
			link := node*lay.ports + p
			n.downIn[link], n.upOut[link] = -1, -1
			nb := n.g.Neighbor(topology.NodeID(node), p)
			if nb == topology.Invalid {
				continue
			}
			bp, ok := n.g.PortTo(nb, topology.NodeID(node))
			if !ok {
				continue
			}
			n.downIn[link] = int32(lay.inIdx(int(nb), bp, 0))
			n.upOut[link] = int32(lay.outIdx(int(nb), bp, 0))
		}
	}
}

// downNode returns the router output port p of node feeds, or
// topology.Invalid for a border or unconnected port.
func (n *Network) downNode(node, p int) topology.NodeID {
	d := n.downIn[node*n.lay.ports+p]
	if d < 0 {
		return topology.Invalid
	}
	return topology.NodeID(int(d) / n.lay.inStride)
}

// portTo returns the port of a that connects to b, or -1.
func (n *Network) portTo(a, b topology.NodeID) int {
	if a < 0 || int(a) >= n.lay.nodes || b < 0 {
		return -1
	}
	for p := 0; p < n.lay.ports; p++ {
		if n.downNode(int(a), p) == b {
			return p
		}
	}
	return -1
}

// downInput returns the input VC index output VC (port, vc) of node
// feeds, or -1.
func (n *Network) downInput(node, port, vc int) int {
	d := n.downIn[node*n.lay.ports+port]
	if d < 0 {
		return -1
	}
	return int(d) + vc
}

// rebuildDead re-derives the dead-node bitset from the fault set.
func (n *Network) rebuildDead() {
	for i := range n.dead {
		n.dead[i] = 0
	}
	for _, nd := range n.faults.FaultyNodes() {
		if nd >= 0 && int(nd) < n.lay.nodes {
			n.dead[nd>>6] |= 1 << (uint(nd) & 63)
		}
	}
}

// isDead reports whether node is a failed router.
func (n *Network) isDead(node int) bool {
	return n.dead[node>>6]&(1<<(uint(node)&63)) != 0
}

// allocSlot binds m to a free slot of the message table, growing the
// table only when every slot is live.
func (n *Network) allocSlot(m *Message) uint32 {
	var s uint32
	if k := len(n.freeSlots); k > 0 {
		s = n.freeSlots[k-1]
		n.freeSlots = n.freeSlots[:k-1]
		n.msgs[s] = m
	} else {
		s = uint32(len(n.msgs))
		n.msgs = append(n.msgs, m)
		if cap(n.freeSlots) < cap(n.msgs) {
			// The free list never outgrows the table, so sizing it
			// with the table keeps freeSlot allocation-free.
			n.freeSlots = make([]uint32, 0, cap(n.msgs))
		}
	}
	m.slot = s
	return s
}

// freeSlot returns slot s to the free list; its message has left the
// network and no flit or output VC refers to it any more.
func (n *Network) freeSlot(s uint32) {
	n.msgs[s] = nil
	n.freeSlots = append(n.freeSlots, s)
}

// noteInput re-derives the active-set memberships of one input slot
// (slot = port*vcs + vc) from its current state. Every mutation of an
// input VC's route state or queue must be followed by a noteInput of
// that slot.
func (n *Network) noteInput(node, slot int) {
	i := node*n.lay.inStride + slot
	qlen := n.qLen[i]
	r := n.route[i]
	n.routeSet.set(node, slot, r == routeNone && qlen > 0 && n.front(i)&flitHead != 0)
	n.vaSet.set(node, slot, r == routePending)
	n.saSet.set(node, slot, r >= 0 && qlen > 0)
	n.drainSet.set(node, slot, r <= routeEject && qlen > 0)
}

// rebuildActiveSets re-derives every work list from scratch — the cold
// path after fault surgery rewrites arbitrary VC state in place.
func (n *Network) rebuildActiveSets() {
	n.routeSet.clear()
	n.vaSet.clear()
	n.saSet.clear()
	n.drainSet.clear()
	n.injNodes.clear()
	for node := 0; node < n.lay.nodes; node++ {
		for slot := 0; slot < n.lay.inStride; slot++ {
			n.noteInput(node, slot)
		}
		n.injNodes.set(node, len(n.injQ[node]) > 0)
	}
}

// ActiveSetPeaks reports the peak sizes of the per-stage work lists,
// sampled every 64 cycles (Step): how busy the network got, in units
// of live (node, port, VC) slots — the denominator of the active-set
// win. InjectNodes counts nodes with a non-empty injection queue.
type ActiveSetPeaks struct {
	Route       int
	Alloc       int
	Switch      int
	Drain       int
	InjectNodes int
}

// Peaks returns the sampled active-set peaks since the network was
// built.
func (n *Network) Peaks() ActiveSetPeaks { return n.peaks }

// samplePeaks updates the peak gauges (called from the serial step
// epilogue every 64 cycles; popcounts over the mask words keep the hot
// path free of a shared size counter).
func (n *Network) samplePeaks() {
	if v := n.routeSet.size(); v > n.peaks.Route {
		n.peaks.Route = v
	}
	if v := n.vaSet.size(); v > n.peaks.Alloc {
		n.peaks.Alloc = v
	}
	if v := n.saSet.size(); v > n.peaks.Switch {
		n.peaks.Switch = v
	}
	if v := n.drainSet.size(); v > n.peaks.Drain {
		n.peaks.Drain = v
	}
	if v := n.injNodes.size(); v > n.peaks.InjectNodes {
		n.peaks.InjectNodes = v
	}
}
