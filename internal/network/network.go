package network

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Config parameterises a Network.
type Config struct {
	Graph     topology.Graph
	Algorithm routing.Algorithm
	// Selector picks among admissible outputs (default MinQueue, the
	// NAFTA adaptivity criterion).
	Selector routing.Selector
	// VCs is the number of virtual channels per physical link
	// (default Algorithm.NumVCs()).
	VCs int
	// BufDepth is the per-VC input buffer depth in flits (default 4).
	BufDepth int
	// DecisionCyclesPerStep converts rule-interpretation steps into
	// router pipeline cycles (default 1); experiment E9 sweeps it.
	DecisionCyclesPerStep int
	// RecordMessages keeps every Message record for post-analysis
	// (costs memory on long runs).
	RecordMessages bool
	// WatchdogCycles flags a suspected deadlock after this many
	// cycles without any flit movement while messages are in flight
	// (default 10000).
	WatchdogCycles int64
	// FavorMarked biases the switch-allocation grant toward messages
	// marked as fault-detoured, compensating "the double disadvantage
	// of the longer path and higher loaded links" (paper, Section 3,
	// Scheduling and Fairness).
	FavorMarked bool
	// CreditDelay is the number of cycles a credit needs to travel
	// back upstream (0 = immediate return, the idealised default).
	// Non-zero values model the round-trip of real credit-based flow
	// control and lower the usable buffer bandwidth accordingly.
	CreditDelay int
	// Recorder, when non-nil, attaches a flight recorder: every
	// pipeline, credit and fault event is recorded into its per-node
	// rings (and streamed to its sink, if any). With a nil Recorder
	// the simulator pays one nil-check per would-be event.
	Recorder *trace.Recorder
	// OnPostMortem, when non-nil, is invoked (at most once per run)
	// with a structured report when the watchdog suspects a deadlock
	// or a packet exceeds LivelockAgeCycles.
	OnPostMortem func(*trace.Report)
	// LivelockAgeCycles, when > 0, bounds the in-network age of any
	// packet: a packet older than this triggers the livelock
	// post-mortem. Checked every LivelockCheckInterval cycles.
	LivelockAgeCycles int64
	// LivelockCheckInterval is how often (in cycles) the livelock age
	// bound is evaluated (default 256). Sampling keeps the check off
	// the per-cycle hot path; an age bound is always coarse, so
	// detection latency of at most one interval is immaterial.
	LivelockCheckInterval int64
	// Failover, when non-nil, owns the diagnosis phase of ApplyFaults:
	// instead of running the algorithm's live fault fixpoint, the
	// network hands the cumulative fault set to the handler, which
	// either flips a precompiled backup engine in (returns true) or
	// performs the recompute itself (returns false). The handler must
	// wrap the same engine instance the network routes on (the failover
	// plane bound to the network's reconfig swapper does exactly that).
	Failover FaultHandler
	// Workers, when >= 2, steps the network on the deterministic
	// parallel engine: routers are sharded across a persistent worker
	// pool, every pipeline stage runs as a parallel compute phase over
	// the shards, and all cross-router effects commit single-threaded
	// in router-ID order — Stats and trace-event content are
	// bit-identical to a serial run. 0 or 1 keeps today's serial
	// stepping path. Parallel stepping silently falls back to serial
	// when the algorithm or selector cannot decide concurrently (see
	// ParallelReason).
	Workers int
}

// Stats aggregates network-level results.
type Stats struct {
	Cycles         int64
	Injected       int64
	Delivered      int64
	Dropped        int64
	Killed         int64
	FlitsDelivered int64
	HopsSum        int64
	StepsSum       int64
	MisroutesSum   int64
	MarkedCount    int64
	LatencySum     int64 // total latency (queue + network) of delivered
	NetLatencySum  int64 // network-only latency of delivered
	MaxLatency     int64
	// Unreachable counts dropped messages whose drop was a certified
	// unreachability verdict: the routing algorithm implements
	// routing.UnreachableJudge and confirmed, at the failing decision,
	// that the destination is disconnected from the deciding node on
	// the post-fault graph. The guaranteed-delivery campaign oracle
	// requires Dropped == Unreachable for the maze family (zero
	// sacrifices).
	Unreachable int64
	// DeadlockSuspected is set by the watchdog; the test suite treats
	// it as a failure.
	DeadlockSuspected bool
}

// AvgLatency returns the mean total latency of delivered messages.
func (s *Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Delivered)
}

// AvgNetLatency returns the mean network latency of delivered
// messages.
func (s *Stats) AvgNetLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.NetLatencySum) / float64(s.Delivered)
}

// Throughput returns delivered flits per node per cycle.
func (s *Stats) Throughput(nodes int) float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.FlitsDelivered) / float64(s.Cycles) / float64(nodes)
}

// AvgSteps returns mean interpreter steps per delivered message.
func (s *Stats) AvgSteps() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.StepsSum) / float64(s.Delivered)
}

// DeliveredRatio returns delivered/(delivered+dropped).
func (s *Stats) DeliveredRatio() float64 {
	t := s.Delivered + s.Dropped
	if t == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(t)
}

// send describes one flit movement decided in the allocation phase and
// applied atomically at the end of the cycle.
type send struct {
	node int32 // source router
	slot int32 // source input slot (port*vcs + vc)
	out  int32 // outs index of the granted output VC
}

// Network is the cycle-driven simulator instance.
type Network struct {
	cfg    Config
	g      topology.Graph
	alg    routing.Algorithm
	sel    routing.Selector
	faults *fault.Set
	now    int64
	nextID int64

	// lay precomputes the arena strides; all per-router state lives in
	// the flat arenas below, indexed by lay (see arena.go and
	// router.go for the hot/cold split).
	lay layout
	// depth is the per-VC ring capacity (Config.BufDepth).
	depth int

	// Hot, pointer-free per-VC arrays. Input VC i owns
	// ring[i*depth:(i+1)*depth], a ring of flit handles with head
	// qHead[i] and length qLen[i]; route[i] is its route state or
	// allocated output VC. credits[o] counts the free downstream
	// buffer slots of output VC o.
	ring    []uint32
	qHead   []int32
	qLen    []int32
	route   []int32
	credits []int32

	// Cold per-VC state. ins[lay.inIdx(node, port, vc)]: port
	// 0..Ports()-1 are links, port Ports() is the injection
	// pseudo-port (its own VC array so an injected message can claim
	// any VC class). outs[lay.outIdx(node, port, vc)] for the link
	// ports only.
	ins  []inputVC
	outs []outputVC

	// Link tables (arena.go): downIn[link] is the input VC 0 that
	// output link = node*ports + port feeds, upOut[link] the upstream
	// output VC 0 feeding input port link; -1 when unconnected.
	downIn []int32
	upOut  []int32
	// dead is the failed-router bitset, rebuilt by ApplyFaults.
	dead []uint64

	// msgs is the message slot table flit handles index; freeSlots
	// holds the slots of finished messages for reuse (arena.go).
	msgs      []*Message
	freeSlots []uint32

	// injQ[node] is the source queue of not-yet-started messages.
	injQ [][]*Message
	// rrIn[node*lay.inPorts+port] is the round-robin pointer for
	// nominating one VC per input port in SA; rrOut likewise
	// (node*lay.ports+port) for picking one request per output port.
	rrIn  []uint8
	rrOut []int
	// sent[node*lay.ports+port] counts flits transmitted through each
	// output port (link-utilisation statistics).
	sent []int64

	// Per-stage active sets (arena.go): exactly the slots with live
	// work, maintained incrementally via noteInput.
	routeSet vcSet
	vaSet    vcSet
	saSet    vcSet
	drainSet vcSet
	injNodes nodeSet
	peaks    ActiveSetPeaks

	// epochs is non-nil when the algorithm hands out table epochs
	// (reconfig.Swapper); messages pin their admission epoch on
	// materialisation and release it when they leave the network.
	epochs epochSource

	inFlight int // messages materialised but not yet finished
	queued   int // messages waiting in injection queues

	lastProgress int64
	stats        Stats
	// rec mirrors cfg.Recorder; the hot-path guard is `rec != nil`.
	rec *trace.Recorder
	// pmFired ensures at most one automatic post-mortem per run.
	pmFired bool
	// Messages holds all records when cfg.RecordMessages is set.
	Messages []*Message
	// creditQueue holds in-flight credit returns when CreditDelay > 0.
	creditQueue []pendingCredit
	// freeScratch backs allocStage's free-candidate filter; nomScratch
	// backs switchStage's per-output nominee lists; moveScratch backs
	// the per-cycle send list. All are reused every cycle.
	freeScratch []routing.Candidate
	nomScratch  [][]int32
	moveScratch []send
	// drain accumulates the serial drain stage's statistics, folded
	// into stats at the end of the stage (the parallel engine keeps
	// one per shard).
	drain drainDelta
	// par is the deterministic parallel stepping engine (nil when
	// Config.Workers <= 1 or the engine/selector forced the serial
	// fallback; parReason says why).
	par       *stepEngine
	parReason string
}

// pendingCredit is one credit travelling back upstream to output VC
// out.
type pendingCredit struct {
	due int64
	out int32
}

// New builds a network simulator from cfg, applying defaults.
func New(cfg Config) *Network {
	if cfg.Graph == nil || cfg.Algorithm == nil {
		panic("network: Config needs Graph and Algorithm")
	}
	if cfg.VCs == 0 {
		cfg.VCs = cfg.Algorithm.NumVCs()
	}
	if cfg.VCs < cfg.Algorithm.NumVCs() {
		panic(fmt.Sprintf("network: %s needs %d VCs, config provides %d",
			cfg.Algorithm.Name(), cfg.Algorithm.NumVCs(), cfg.VCs))
	}
	if cfg.BufDepth == 0 {
		cfg.BufDepth = 4
	}
	if cfg.DecisionCyclesPerStep == 0 {
		cfg.DecisionCyclesPerStep = 1
	}
	if cfg.Selector == nil {
		cfg.Selector = routing.MinQueue{}
	}
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = 10000
	}
	if cfg.LivelockCheckInterval == 0 {
		cfg.LivelockCheckInterval = defaultLivelockCheckInterval
	}
	n := &Network{
		cfg:    cfg,
		g:      cfg.Graph,
		alg:    cfg.Algorithm,
		sel:    cfg.Selector,
		faults: fault.NewSet(),
		rec:    cfg.Recorder,
		depth:  cfg.BufDepth,
	}
	n.lay = newLayout(cfg.Graph.Nodes(), cfg.Graph.Ports(), cfg.VCs)
	lay := &n.lay
	nIn, nOut := lay.nodes*lay.inStride, lay.nodes*lay.outStride
	n.ring = make([]uint32, nIn*n.depth)
	n.qHead = make([]int32, nIn)
	n.qLen = make([]int32, nIn)
	n.route = make([]int32, nIn)
	n.credits = make([]int32, nOut)
	n.ins = make([]inputVC, nIn)
	n.outs = make([]outputVC, nOut)
	n.dead = make([]uint64, (lay.nodes+63)/64)
	n.buildLinkTables()
	// The slot table starts with room for one message per input port;
	// it grows only past that many messages in flight.
	n.msgs = make([]*Message, 0, lay.nodes*lay.inPorts)
	n.freeSlots = make([]uint32, 0, cap(n.msgs))
	n.injQ = make([][]*Message, lay.nodes)
	n.rrIn = make([]uint8, lay.nodes*lay.inPorts)
	n.rrOut = make([]int, lay.nodes*lay.ports)
	n.sent = make([]int64, lay.nodes*lay.ports)
	// Routing candidates persist across cycles (VA retries consume
	// them), so each input slot owns a fixed-capacity sub-slice too. An
	// algorithm offering more than candCap outputs for one decision
	// grows that slot's buffer once — a one-time, amortised event; the
	// natives on the benched topologies all fit.
	candCap := 4
	if pv := lay.ports * lay.vcs; pv < candCap {
		candCap = pv
	}
	cands := make([]routing.Candidate, nIn*candCap)
	for i := range n.ins {
		n.ins[i].candidates = cands[i*candCap : i*candCap : (i+1)*candCap]
		n.resetRoute(i)
	}
	for o := range n.outs {
		n.releaseOutput(o)
		n.credits[o] = int32(cfg.BufDepth)
	}
	sets := newStageSets(lay.nodes, lay.inStride)
	n.routeSet, n.vaSet, n.saSet, n.drainSet = sets[stRoute], sets[stVA], sets[stSA], sets[stDrain]
	n.injNodes = newNodeSet(lay.nodes)
	if n.rec != nil {
		n.rec.SetClock(n.Now)
	}
	n.attachReconfig(cfg.Algorithm)
	n.initParallel()
	return n
}

// Now returns the current cycle.
func (n *Network) Now() int64 { return n.now }

// Stats returns a snapshot of the aggregated statistics.
func (n *Network) Stats() Stats {
	s := n.stats
	s.Cycles = n.now
	return s
}

// InFlight returns the number of messages materialised in the network.
func (n *Network) InFlight() int { return n.inFlight }

// Queued returns the number of messages waiting in injection queues.
func (n *Network) Queued() int { return n.queued }

// Idle reports whether no messages are queued or in flight.
func (n *Network) Idle() bool { return n.inFlight == 0 && n.queued == 0 }

// Inject enqueues a new message at src destined to dst with the given
// flit length (>= 2). It returns the message record.
func (n *Network) Inject(src, dst topology.NodeID, length int) *Message {
	if length < 2 {
		length = 2
	}
	m := &Message{
		ID:         n.nextID,
		Hdr:        routing.Header{Src: src, Dst: dst, Length: length},
		InjectTime: n.now,
		StartTime:  -1,
		DoneTime:   -1,
		DropInPort: -1,
		DropInVC:   -1,
		State:      StateQueued,
	}
	n.nextID++
	n.stats.Injected++
	n.injQ[src] = append(n.injQ[src], m)
	n.injNodes.set(int(src), true)
	n.queued++
	if n.cfg.RecordMessages {
		n.Messages = append(n.Messages, m)
	}
	return m
}

// LoadView implementation (the Information Units of the router
// architecture: buffer exploitation per output).

// OutFree reports whether output (port,vc) of node is unowned.
func (n *Network) OutFree(node topology.NodeID, port, vc int) bool {
	return n.outs[n.lay.outIdx(int(node), port, vc)].free()
}

// Credits returns the free downstream buffer slots of output
// (port,vc).
func (n *Network) Credits(node topology.NodeID, port, vc int) int {
	return int(n.credits[n.lay.outIdx(int(node), port, vc)])
}

// QueuedFlits returns the data volume still to pass output (port,vc).
func (n *Network) QueuedFlits(node topology.NodeID, port, vc int) int {
	total := 0
	base := n.lay.outIdx(int(node), port, 0)
	for v := 0; v < n.cfg.VCs; v++ {
		total += int(n.outs[base+v].remaining)
	}
	return total
}

var _ routing.LoadView = (*Network)(nil)

// Step advances the simulation by one cycle.
func (n *Network) Step() {
	if n.par != nil {
		n.stepParallel()
		return
	}
	n.stepSerial()
}

// stepSerial is the single-threaded stepping path; the parallel
// engine's differential tests treat it as the oracle.
func (n *Network) stepSerial() {
	n.deliverCredits()
	n.injectStage()
	n.routeStage()
	n.allocStage()
	moves := n.switchStage()
	progress := n.applyMoves(moves)
	if n.drainStage() {
		progress = true
	}
	n.endCycle(progress)
}

// endCycle runs the per-cycle epilogue shared by both engines:
// watchdog, livelock sampling, peak sampling and the clock.
func (n *Network) endCycle(progress bool) {
	if progress {
		n.lastProgress = n.now
	} else if n.inFlight > 0 && n.now-n.lastProgress > n.cfg.WatchdogCycles {
		if !n.stats.DeadlockSuspected {
			n.stats.DeadlockSuspected = true
			n.deadlockPostMortem()
		}
	}
	if n.cfg.LivelockAgeCycles > 0 && n.now%n.cfg.LivelockCheckInterval == 0 {
		n.checkLivelock()
	}
	if n.now&63 == 0 {
		n.samplePeaks()
	}
	n.now++
}

// Run advances the simulation by the given number of cycles.
func (n *Network) Run(cycles int64) {
	for i := int64(0); i < cycles; i++ {
		n.Step()
	}
}

// Drain runs until the network is idle or maxCycles elapse; it returns
// true when fully drained.
func (n *Network) Drain(maxCycles int64) bool {
	for i := int64(0); i < maxCycles; i++ {
		if n.Idle() {
			return true
		}
		n.Step()
	}
	return n.Idle()
}

// emit records ev directly (ops == nil: serial stepping) or defers it
// into a parallel shard's op list.
func (n *Network) emit(ops *[]deferredOp, ev trace.Event) {
	if ops == nil {
		n.rec.Record(ev)
	} else {
		*ops = append(*ops, deferredOp{kind: opEvent, ev: ev})
	}
}

// injectStage materialises the next queued message of every node with
// a non-empty injection queue into its injection pseudo-port when that
// port is empty: the message takes a slot and the port's VC 0 holds its
// head handle with qLen = Length flits left.
func (n *Network) injectStage() {
	n.injNodes.forEach(func(node int) {
		if n.isDead(node) {
			return // killed separately in ApplyFaults
		}
		i := node*n.lay.inStride + n.lay.injBase // (injection pseudo-port, VC 0)
		if n.qLen[i] > 0 {
			return // previous message still streaming
		}
		m := n.injQ[node][0]
		n.injQ[node] = n.injQ[node][1:]
		if len(n.injQ[node]) == 0 {
			n.injNodes.set(node, false)
		}
		m.StartTime = n.now
		m.State = StateInFlight
		if n.epochs != nil {
			m.Hdr.Epoch = n.epochs.AdmitEpoch()
		}
		f := n.allocSlot(m)<<flitSlotShift | flitHead
		if m.Hdr.Length == 1 {
			f |= flitTail
		}
		n.ring[i*n.depth] = f
		n.qHead[i] = 0
		n.qLen[i] = int32(m.Hdr.Length)
		n.resetRoute(i)
		n.noteInput(node, n.lay.injBase)
		n.queued--
		n.inFlight++
		if n.rec != nil {
			n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KFlitInjected,
				Node: int32(node), Msg: m.ID, Port: -1, VC: -1, Arg: int32(m.Hdr.Length)})
		}
	})
}

// routeStage performs RC for every input VC whose front flit is an
// unrouted head — exactly the routeSet membership.
func (n *Network) routeStage() {
	n.routeSet.forEach(0, n.lay.nodes, func(node, slot int) {
		n.routeOne(n.alg, node, slot, nil)
	})
}

// routeOne performs RC for input slot of node on alg; events go
// through emit.
func (n *Network) routeOne(alg routing.Algorithm, node, slot int, ops *[]deferredOp) {
	if n.isDead(node) {
		return
	}
	i := node*n.lay.inStride + slot
	ivc := &n.ins[i]
	m := n.msgs[flitSlot(n.front(i))]
	ivc.curMsg = m
	if m.Hdr.Dst == topology.NodeID(node) {
		n.route[i] = routeEject
		ivc.decisionReady = n.now
		n.noteInput(node, slot)
		return
	}
	p, v := int(n.lay.portOf[slot]), int(n.lay.vcOf[slot])
	req := n.requestFor(node, p, v, m)
	steps := alg.Steps(req)
	m.Steps += steps
	ivc.candidates = routing.RouteInto(alg, req, ivc.candidates[:0])
	unroutable := len(ivc.candidates) == 0
	n.route[i] = routePending
	if unroutable {
		n.route[i] = routeDrop
		if judge, ok := alg.(routing.UnreachableJudge); ok && judge.UnreachableVerdict(req) {
			m.Unreachable = true
		}
	}
	ivc.decisionReady = n.now + int64(steps*n.cfg.DecisionCyclesPerStep)
	n.noteInput(node, slot)
	if n.rec != nil {
		kind := trace.KRouteComputed
		if unroutable {
			kind = trace.KUnroutable
		}
		n.emit(ops, trace.Event{Cycle: n.now, Kind: kind,
			Node: int32(node), Msg: m.ID, Port: int16(p), VC: int16(v),
			Arg: int32(len(ivc.candidates))})
	}
}

func (n *Network) requestFor(node, p, v int, m *Message) routing.Request {
	inPort := p
	if p == n.lay.ports {
		inPort = routing.InjectionPort
	}
	return routing.Request{Node: topology.NodeID(node), InPort: inPort, InVC: v, Hdr: &m.Hdr}
}

// allocStage performs VA: routed-but-unallocated inputs (the vaSet)
// try to claim a free output VC among their candidates, guided by the
// selector.
func (n *Network) allocStage() {
	// Credit-gated regimes (routing.CreditGatedVA) must not commit a
	// head to an output VC with no downstream credit: their escape
	// argument needs blocked heads to keep re-arbitrating. Credits are
	// only mutated in the serial phases, so the read is stable here.
	needCredit := routing.AllocNeedsCredit(n.alg)
	n.vaSet.forEach(0, n.lay.nodes, func(node, slot int) {
		n.freeScratch = n.allocOne(n.alg, node, slot, needCredit, n.freeScratch, nil)
	})
}

// allocOne performs VA for input slot of node, filtering candidates
// through the free scratch (returned for reuse); events go through
// emit.
func (n *Network) allocOne(alg routing.Algorithm, node, slot int, needCredit bool, free []routing.Candidate, ops *[]deferredOp) []routing.Candidate {
	if n.isDead(node) {
		return free
	}
	i := node*n.lay.inStride + slot
	ivc := &n.ins[i]
	if n.now < ivc.decisionReady {
		return free
	}
	outBase := node * n.lay.outStride
	free = free[:0]
	for _, c := range ivc.candidates {
		o := outBase + c.Port*n.lay.vcs + c.VC
		if n.outs[o].free() && (!needCredit || n.credits[o] > 0) {
			free = append(free, c)
		}
	}
	if len(free) == 0 {
		return free // selectors do not retain the slice
	}
	p, v := int(n.lay.portOf[slot]), int(n.lay.vcOf[slot])
	m := n.frontMsg(i)
	chosen := n.sel.Select(n, topology.NodeID(node), free, &m.Hdr)
	alg.NoteHop(n.requestFor(node, p, v, m), chosen)
	o := outBase + chosen.Port*n.lay.vcs + chosen.VC
	n.route[i] = int32(o)
	out := &n.outs[o]
	out.ownerIn = int32(slot)
	out.owner = m.slot
	out.remaining = int32(m.Hdr.Length)
	n.noteInput(node, slot)
	if n.rec != nil {
		n.emit(ops, trace.Event{Cycle: n.now, Kind: trace.KVCAllocated,
			Node: int32(node), Msg: m.ID, Port: int16(chosen.Port), VC: int16(chosen.VC)})
	}
	return free
}

// switchStage performs SA: each input port nominates one VC, each
// output port grants one nominee; the result is the list of flit
// movements of this cycle. Only nodes in the saSet (some input holds
// an allocated output with flits queued) can nominate, so inactive
// routers are skipped wholesale; within an active node the walk is the
// full serial round-robin order — the rr pointers, blocked-event and
// nomination behaviour are untouched.
func (n *Network) switchStage() []send {
	moves := n.moveScratch[:0]
	if n.nomScratch == nil {
		n.nomScratch = make([][]int32, n.lay.ports)
	}
	n.saSet.forEachNode(0, n.lay.nodes, func(node int) {
		if n.isDead(node) {
			return
		}
		moves = n.switchNode(node, n.nomScratch, moves, nil)
	})
	n.moveScratch = moves
	return moves
}

// switchNode runs nomination and grant for one active router,
// appending the granted movements to moves. nomineesByOut holds the
// nominated input slots per output port. Blocked events go through
// emit.
func (n *Network) switchNode(node int, nomineesByOut [][]int32, moves []send, ops *[]deferredOp) []send {
	lay := &n.lay
	inBase := node * lay.inStride
	outBase := node * lay.outStride
	rrBase := node * lay.inPorts
	rrOutBase := node * lay.ports
	for op := range nomineesByOut {
		nomineesByOut[op] = nomineesByOut[op][:0]
	}
	// Nomination: one VC per input port (round-robin fairness). The
	// per-output nominee lists live in reused scratch storage (indexed
	// by output port — grants are independent per output). The serial
	// walk's per-slot skip condition (unallocated or empty queue) is
	// exactly non-membership in the SA set, so the node's saSet mask
	// words double as a port/VC skip mask: ports with no active VC cost
	// one bit test, and within a port only active VCs are visited — in
	// unchanged round-robin order.
	saBase := n.saSet.base(node)
	vcs := lay.vcs
	vcMask := uint64(1)<<uint(vcs) - 1
	for p := 0; p < lay.inPorts; p++ {
		bitpos := p * vcs
		pm := n.saSet.words[saBase+bitpos>>6] >> (bitpos & 63)
		if rem := 64 - bitpos&63; rem < vcs {
			pm |= n.saSet.words[saBase+bitpos>>6+1] << rem
		}
		pm &= vcMask
		if pm == 0 {
			continue
		}
		for off := 0; off < vcs; off++ {
			v := int(n.rrIn[rrBase+p]) + off
			if v >= vcs {
				v -= vcs
			}
			if pm&(1<<uint(v)) == 0 {
				continue
			}
			slot := bitpos + v
			o := int(n.route[inBase+slot])
			outPort := int(lay.portOf[o-outBase])
			if n.credits[o] <= 0 {
				if n.rec != nil && !n.ins[inBase+slot].blockedNoted {
					ivc := &n.ins[inBase+slot]
					ivc.blockedNoted = true
					n.emit(ops, trace.Event{Cycle: n.now, Kind: trace.KFlitBlocked,
						Node: int32(node), Msg: ivc.curMsg.ID,
						Port: int16(outPort), VC: int16(lay.vcOf[o-outBase])})
				}
				continue
			}
			nomineesByOut[outPort] = append(nomineesByOut[outPort], int32(slot))
			if v++; v == vcs {
				v = 0
			}
			n.rrIn[rrBase+p] = uint8(v)
			break
		}
	}
	// Grant: one input per output port (optionally favouring
	// fault-detoured messages, Section 3 Scheduling and Fairness).
	for op, noms := range nomineesByOut {
		if len(noms) == 0 {
			continue
		}
		start := 0
		if len(noms) > 1 {
			start = n.rrOut[rrOutBase+op] % len(noms)
		}
		pick := noms[start]
		if n.cfg.FavorMarked {
			for off := 0; off < len(noms); off++ {
				cand := noms[(start+off)%len(noms)]
				if m := n.ins[inBase+int(cand)].curMsg; m != nil && m.Hdr.Marked {
					pick = cand
					break
				}
			}
		}
		n.rrOut[rrOutBase+op]++
		moves = append(moves, send{node: int32(node), slot: pick, out: n.route[inBase+int(pick)]})
	}
	return moves
}

// applyMoves executes the collected sends: pop at the source, push at
// the downstream router, and maintain credits, ownership and message
// accounting. It reports whether any flit moved.
func (n *Network) applyMoves(moves []send) bool {
	lay := &n.lay
	for _, mv := range moves {
		node, slot, o := int(mv.node), int(mv.slot), int(mv.out)
		i := node*lay.inStride + slot
		f := n.popFront(i, slot >= lay.injBase)
		if n.rec != nil {
			n.ins[i].blockedNoted = false
		}
		n.creditReturn(node, slot, nil)
		n.credits[o]--
		n.outs[o].remaining--
		local := o - node*lay.outStride
		link := node*lay.ports + int(lay.portOf[local])
		n.sent[link]++
		if f&flitHead != 0 {
			n.msgs[flitSlot(f)].Hops++
		}
		// Deliver into the downstream input buffer.
		d := n.downIn[link]
		if d < 0 {
			panic("network: flit sent through an unconnected port")
		}
		di := int(d) + int(lay.vcOf[local])
		n.pushBack(di, f)
		dnode := di / lay.inStride
		n.noteInput(dnode, di-dnode*lay.inStride)
		if f&flitTail != 0 {
			// The worm has fully left: release input route state and
			// output ownership.
			n.resetRoute(i)
			n.releaseOutput(o)
			if n.rec != nil {
				n.rec.Record(trace.Event{Cycle: n.now, Kind: trace.KVCFreed,
					Node: int32(node), Msg: n.msgs[flitSlot(f)].ID,
					Port: int16(lay.portOf[local]), VC: int16(lay.vcOf[local])})
			}
		}
		n.noteInput(node, slot)
	}
	return len(moves) > 0
}

// creditReturn gives one credit back for a flit popped from input slot
// of node, after the configured return latency. With ops == nil
// (serial stepping) the credit and its event apply at once; a parallel
// shard defers both into its op list, because the upstream router may
// belong to another shard. Nothing reads credits between the drain
// compute and the commit, so the deferral is behaviourally identical.
func (n *Network) creditReturn(node, slot int, ops *[]deferredOp) {
	if slot >= n.lay.injBase {
		return // injection pseudo-port: no upstream link
	}
	u := n.upOut[node*n.lay.ports+int(n.lay.portOf[slot])]
	if u < 0 {
		return
	}
	pc := pendingCredit{due: n.now + int64(n.cfg.CreditDelay), out: u + n.lay.vcOf[slot]}
	if n.rec != nil {
		o := int(pc.out)
		up := o / n.lay.outStride
		local := o - up*n.lay.outStride
		n.emit(ops, trace.Event{Cycle: n.now, Kind: trace.KCreditSent,
			Node: int32(up), Msg: -1, Port: int16(local / n.lay.vcs), VC: int16(local % n.lay.vcs),
			Arg: int32(n.cfg.CreditDelay)})
	}
	switch {
	case ops != nil && n.cfg.CreditDelay <= 0:
		*ops = append(*ops, deferredOp{kind: opCredit, credit: pc})
	case ops != nil:
		*ops = append(*ops, deferredOp{kind: opQueueCredit, credit: pc})
	case n.cfg.CreditDelay <= 0:
		n.credits[pc.out]++
	default:
		n.creditQueue = append(n.creditQueue, pc)
	}
}

// deliverCredits applies due credit returns.
func (n *Network) deliverCredits() {
	if len(n.creditQueue) == 0 {
		return
	}
	kept := n.creditQueue[:0]
	for _, c := range n.creditQueue {
		if c.due <= n.now {
			n.credits[c.out]++
		} else {
			kept = append(kept, c)
		}
	}
	n.creditQueue = kept
}

// drainStage ejects delivered flits and absorbs unroutable messages
// (one flit per input VC per cycle) — exactly the drainSet membership,
// gated live on decisionReady. It reports whether anything drained.
func (n *Network) drainStage() bool {
	d := &n.drain
	n.drainSet.forEach(0, n.lay.nodes, func(node, slot int) {
		n.drainOne(node, slot, d, nil)
	})
	return n.foldDrain(d)
}

// drainOne drains one flit of input slot of node into d. A serial step
// (ops == nil) releases epochs and frees slots at once; a parallel
// shard defers them, with credits and events, into its op list.
func (n *Network) drainOne(node, slot int, d *drainDelta, ops *[]deferredOp) {
	if n.isDead(node) {
		return
	}
	i := node*n.lay.inStride + slot
	if n.now < n.ins[i].decisionReady {
		return
	}
	p, v := int(n.lay.portOf[slot]), int(n.lay.vcOf[slot])
	f := n.popFront(i, slot >= n.lay.injBase)
	n.creditReturn(node, slot, ops)
	d.progress = true
	eject := n.route[i] == routeEject
	m := n.msgs[flitSlot(f)]
	if eject {
		d.flitsDelivered++
		m.flitsEjected++
	}
	if f&flitTail != 0 {
		m.DoneTime = n.now
		if n.rec != nil {
			kind := trace.KFlitDelivered
			if !eject {
				kind = trace.KFlitDropped
			}
			n.emit(ops, trace.Event{Cycle: n.now, Kind: kind,
				Node: int32(node), Msg: m.ID, Port: int16(p), VC: int16(v),
				Arg: int32(n.now - m.InjectTime)})
		}
		if eject {
			m.State = StateDelivered
			d.delivered++
			d.hopsSum += int64(m.Hops)
			d.stepsSum += int64(m.Steps)
			d.misroutesSum += int64(m.Hdr.Misroutes)
			if m.Hdr.Marked {
				d.markedCount++
			}
			lat := m.Latency()
			d.latencySum += lat
			d.netLatencySum += m.NetworkLatency()
			if lat > d.maxLatency {
				d.maxLatency = lat
			}
		} else {
			m.State = StateDropped
			m.DropNode = topology.NodeID(node)
			m.DropInPort = p
			if p == n.lay.ports {
				m.DropInPort = routing.InjectionPort
			}
			m.DropInVC = v
			d.dropped++
			if m.Unreachable {
				d.unreachable++
			}
		}
		d.inFlight--
		if ops == nil {
			if n.epochs != nil {
				n.epochs.ReleaseEpoch(m.Hdr.Epoch)
			}
			n.freeSlot(m.slot)
		} else {
			if n.epochs != nil {
				*ops = append(*ops, deferredOp{kind: opRelease, epoch: m.Hdr.Epoch})
			}
			*ops = append(*ops, deferredOp{kind: opFree, slot: m.slot})
		}
		n.resetRoute(i)
	}
	n.noteInput(node, slot)
}

// foldDrain adds one drain delta to the statistics and message
// accounting, resets it and reports whether anything drained.
func (n *Network) foldDrain(d *drainDelta) bool {
	n.stats.FlitsDelivered += d.flitsDelivered
	n.stats.Delivered += d.delivered
	n.stats.Dropped += d.dropped
	n.stats.Unreachable += d.unreachable
	n.stats.HopsSum += d.hopsSum
	n.stats.StepsSum += d.stepsSum
	n.stats.MisroutesSum += d.misroutesSum
	n.stats.MarkedCount += d.markedCount
	n.stats.LatencySum += d.latencySum
	n.stats.NetLatencySum += d.netLatencySum
	if d.maxLatency > n.stats.MaxLatency {
		n.stats.MaxLatency = d.maxLatency
	}
	n.inFlight += d.inFlight
	progress := d.progress
	*d = drainDelta{}
	return progress
}
