package network

import (
	"fmt"
	"sync"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Deterministic parallel stepping.
//
// The network is sharded into contiguous router-ID ranges, one shard
// per worker of a persistent pool. Every pipeline stage runs as a
// parallel compute phase over the shards followed by a barrier; a
// worker only mutates state owned by its own routers (input VCs,
// output ownership, the headers of messages parked at its inputs) and
// defers every cross-router or globally ordered effect — trace
// events, rule-fire observations, epoch releases, credit returns,
// statistics — into its shard's ordered op list. After the barrier a
// single-threaded commit replays the op lists in shard order, which
// is exactly ascending router-ID order, the order the serial stepper
// produces. Stage compute is router-local by construction:
//
//   - deliverCredits writes output credits of the credit's target
//     router (filtered per shard; the queue is compacted serially);
//   - routeStage/allocStage write only the deciding router's input
//     and output VC state; routing decisions run on per-worker
//     decision contexts (routing.DecisionContexter) or on engines
//     that declare concurrent decisions safe;
//   - switchStage writes only the router's round-robin pointers and
//     appends movements to the shard's move list; the movements
//     themselves — the only writes crossing router boundaries — are
//     applied by the serial commit (applyMoves), in shard order;
//   - drainStage pops local input VCs and defers credits, stats,
//     epoch releases, slot frees and events.
//
// injectStage stays serial (it walks the injection work list and
// touches global counters). The result is bit-identical Stats and
// trace-event content for every seed, algorithm, fast-path setting,
// fault schedule and hot-swap scenario — the serial stepper remains
// the oracle of the differential tests.
//
// With the flat-arena/active-set engine (arena.go), each shard stage
// iterates only its range of the per-stage work lists
// (forEach(s.lo, s.hi)) instead of scanning every router. Membership
// updates from inside a parallel phase write the mutated node's mask
// words and its summary-bit word; summary words are
// shared by 64 consecutive nodes, so initParallel aligns every shard
// boundary to a multiple of 64 router IDs — no two workers ever write
// the same word, and the phase commit order is unchanged.

// Compute-phase identifiers (stepEngine.phase).
const (
	phCredits = iota
	phRoute
	phAlloc
	phSwitch
	phDrain
)

// opKind tags one deferred effect in a shard's ordered op list.
type opKind uint8

const (
	// opEvent replays one flight-recorder event.
	opEvent opKind = iota
	// opFire replays one rule-table firing through the originating
	// engine's live hook (routing.RuleFirer) — preserving first-seen
	// base numbering and event interleaving of hooks like
	// rulesets.TraceRules.
	opFire
	// opRelease releases one message's admission epoch; retirement
	// hooks (table invalidation, KEpochRetired events) fire inside the
	// replay, interleaved exactly as in a serial drain.
	opRelease
	// opCredit increments one upstream output credit (CreditDelay 0).
	opCredit
	// opQueueCredit appends one delayed credit to the global queue.
	opQueueCredit
	// opFree returns a finished message's slot to the free list.
	opFree
)

// deferredOp is one entry of a shard's ordered op list. The struct is
// a tagged union; only the fields of its kind are meaningful.
type deferredOp struct {
	kind   opKind
	ev     trace.Event
	eng    routing.Algorithm
	node   topology.NodeID
	base   string
	rule   int
	epoch  uint64
	credit pendingCredit
	slot   uint32
}

// drainDelta accumulates drain-stage contributions to the global Stats
// and message accounting, folded in by foldDrain (at the end of the
// serial stage, or per shard at the parallel commit).
type drainDelta struct {
	flitsDelivered int64
	delivered      int64
	dropped        int64
	unreachable    int64
	hopsSum        int64
	stepsSum       int64
	misroutesSum   int64
	markedCount    int64
	latencySum     int64
	netLatencySum  int64
	maxLatency     int64
	inFlight       int
	progress       bool
}

// shard is one worker's router range plus all its per-worker state:
// the decision context, reusable stage scratch and the deferred-op
// list. Everything is reused across cycles — the parallel hot path
// does not allocate in steady state.
type shard struct {
	lo, hi int // router index range [lo, hi)

	// alg makes this worker's routing decisions: a decision context of
	// the network's engine, or the engine itself when it is
	// ConcurrentRoutable.
	alg routing.Algorithm
	// flush folds the context's local lookup counters into the parent
	// engine (called from the serial commit; nil when not supported).
	flush routing.LookupFlusher
	// sync materialises child contexts after engine hot-swaps (nil for
	// engines without generations).
	sync routing.ContextSyncer

	ops   []deferredOp
	free  []routing.Candidate
	noms  [][]int32
	moves []send
	delta drainDelta
}

// stepEngine owns the worker pool of one network. Workers are started
// lazily on the first parallel step and parked on per-worker channels
// between phases; runPhase publishes the phase id, signals every
// worker and waits on the barrier.
type stepEngine struct {
	n      *Network
	shards []*shard
	phase  int

	start   []chan struct{}
	done    sync.WaitGroup
	quit    chan struct{}
	exited  sync.WaitGroup
	started bool
	stopped sync.Once
}

// initParallel builds the parallel engine when Config.Workers asks for
// one and the algorithm/selector can decide concurrently; otherwise it
// records the fallback reason and leaves the serial path in charge.
func (n *Network) initParallel() {
	if n.cfg.Workers < 2 {
		return
	}
	sel, ok := n.sel.(routing.ShardSafeSelector)
	if !ok {
		n.parReason = fmt.Sprintf("selector %q is not shard-safe", n.sel.Name())
		return
	}
	nodes := n.g.Nodes()
	w := n.cfg.Workers
	if w > nodes {
		w = nodes
	}
	e := &stepEngine{n: n, quit: make(chan struct{})}
	e.shards = make([]*shard, w)
	e.start = make([]chan struct{}, w)
	// Shard boundaries are rounded up to multiples of 64 router IDs so
	// that the active sets' node-summary words (64 nodes per word) are
	// never shared between workers; the final boundary is the node
	// count. Rounding preserves monotonicity, so small networks may get
	// empty trailing shards — their workers simply have no work.
	bound := func(i int) int {
		b := (i*nodes/w + 63) &^ 63
		if b > nodes {
			b = nodes
		}
		return b
	}
	for i := range e.shards {
		lo, hi := bound(i), bound(i+1)
		if i == 0 {
			lo = 0
		}
		if i == w-1 {
			hi = nodes
		}
		e.shards[i] = &shard{
			lo:   lo,
			hi:   hi,
			noms: make([][]int32, n.lay.ports),
		}
		e.start[i] = make(chan struct{}, 1)
	}
	if !n.bindShardContexts(e) {
		return // parReason set
	}
	sel.PrepareNodes(nodes)
	n.par = e
}

// bindShardContexts (re)binds every shard's decision context to the
// network's current algorithm. It returns false — with parReason set —
// when the algorithm can neither hand out decision contexts nor decide
// concurrently.
func (n *Network) bindShardContexts(e *stepEngine) bool {
	for _, s := range e.shards {
		s := s
		switch alg := n.alg.(type) {
		case routing.DecisionContexter:
			ctx := alg.NewDecisionContext(func(eng routing.Algorithm, node topology.NodeID, base string, rule int) {
				s.ops = append(s.ops, deferredOp{kind: opFire, eng: eng, node: node, base: base, rule: rule})
			})
			s.alg = ctx
			s.flush, _ = ctx.(routing.LookupFlusher)
			s.sync, _ = ctx.(routing.ContextSyncer)
			if s.sync != nil {
				if err := s.sync.SyncDecisionContexts(); err != nil {
					n.parReason = err.Error()
					return false
				}
			}
		case routing.ConcurrentRoutable:
			s.alg = alg
			s.flush, s.sync = nil, nil
		default:
			n.parReason = fmt.Sprintf("algorithm %q supports neither decision contexts nor concurrent decisions", n.alg.Name())
			return false
		}
	}
	return true
}

// ParallelActive reports whether the network steps on the parallel
// engine.
func (n *Network) ParallelActive() bool { return n.par != nil }

// ParallelReason explains why the network fell back to serial stepping
// ("" while parallel is active or was never requested).
func (n *Network) ParallelReason() string { return n.parReason }

// Close releases the worker pool (idempotent; a nil-engine close is a
// no-op). Serial networks need no Close, but callers may always pair
// New with Close.
func (n *Network) Close() {
	if n.par != nil {
		n.par.stop()
	}
}

// disableParallel permanently reverts the network to serial stepping.
func (n *Network) disableParallel(reason string) {
	n.parReason = reason
	if n.par != nil {
		n.par.stop()
		n.par = nil
	}
}

func (e *stepEngine) startWorkers() {
	e.started = true
	e.exited.Add(len(e.shards))
	for i := range e.shards {
		go e.worker(i)
	}
}

func (e *stepEngine) stop() {
	e.stopped.Do(func() { close(e.quit) })
	if e.started {
		e.exited.Wait()
		e.started = false
	}
}

func (e *stepEngine) worker(i int) {
	defer e.exited.Done()
	s := e.shards[i]
	for {
		select {
		case <-e.quit:
			return
		case <-e.start[i]:
			e.dispatch(s)
			e.done.Done()
		}
	}
}

func (e *stepEngine) dispatch(s *shard) {
	switch e.phase {
	case phCredits:
		e.n.deliverCreditsShard(s)
	case phRoute:
		e.n.routeStageShard(s)
	case phAlloc:
		e.n.allocStageShard(s)
	case phSwitch:
		e.n.switchStageShard(s)
	case phDrain:
		e.n.drainStageShard(s)
	}
}

// runPhase runs one compute phase on every shard and waits for the
// barrier. The phase id is published before the channel sends, so the
// workers' reads are ordered after the write.
func (e *stepEngine) runPhase(ph int) {
	e.phase = ph
	e.done.Add(len(e.shards))
	for _, c := range e.start {
		c <- struct{}{}
	}
	e.done.Wait()
}

// stepParallel advances the simulation by one cycle on the parallel
// engine, bit-identical to stepSerial.
func (n *Network) stepParallel() {
	e := n.par
	if !e.started {
		e.startWorkers()
	}
	// Engine generations change only between cycles (Reconfigure), so
	// the top of the cycle is the race-free point to materialise child
	// contexts for hot-swapped engines. A sync failure means some live
	// generation cannot decide concurrently: fall back to serial — a
	// correctness fallback, never an error.
	for _, s := range e.shards {
		if s.sync == nil {
			continue
		}
		if err := s.sync.SyncDecisionContexts(); err != nil {
			n.disableParallel(err.Error())
			n.stepSerial()
			return
		}
	}
	if len(n.creditQueue) > 0 {
		e.runPhase(phCredits)
		kept := n.creditQueue[:0]
		for _, c := range n.creditQueue {
			if c.due > n.now {
				kept = append(kept, c)
			}
		}
		n.creditQueue = kept
	}
	n.injectStage()
	e.runPhase(phRoute)
	n.commitOps()
	e.runPhase(phAlloc)
	n.commitOps()
	e.runPhase(phSwitch)
	n.commitOps()
	progress := false
	for _, s := range e.shards {
		if n.applyMoves(s.moves) {
			progress = true
		}
		s.moves = s.moves[:0]
	}
	e.runPhase(phDrain)
	if n.commitDrain() {
		progress = true
	}
	n.endCycle(progress)
}

// commitOps replays every shard's deferred ops in shard order (=
// ascending router-ID order = serial order).
func (n *Network) commitOps() {
	for _, s := range n.par.shards {
		n.replayOps(s)
	}
}

func (n *Network) replayOps(s *shard) {
	for i := range s.ops {
		op := &s.ops[i]
		switch op.kind {
		case opEvent:
			n.rec.Record(op.ev)
		case opFire:
			if rf, ok := op.eng.(routing.RuleFirer); ok {
				rf.FireRuleObserver(op.node, op.base, op.rule)
			}
		case opRelease:
			n.epochs.ReleaseEpoch(op.epoch)
		case opCredit:
			n.credits[op.credit.out]++
		case opQueueCredit:
			n.creditQueue = append(n.creditQueue, op.credit)
		case opFree:
			n.freeSlot(op.slot)
		}
	}
	s.ops = s.ops[:0]
}

// commitDrain replays the drain phase's ops and folds every shard's
// stat/accounting deltas, in shard order. It also flushes the decision
// contexts' local lookup counters so the engines' public counters stay
// exact cycle-by-cycle.
func (n *Network) commitDrain() bool {
	progress := false
	for _, s := range n.par.shards {
		n.replayOps(s)
		if n.foldDrain(&s.delta) {
			progress = true
		}
		if s.flush != nil {
			s.flush.FlushLookups()
		}
	}
	return progress
}

// deliverCreditsShard applies every due credit whose target router
// lies in the shard; the serial caller compacts the queue afterwards.
func (n *Network) deliverCreditsShard(s *shard) {
	lo, hi := int32(s.lo*n.lay.outStride), int32(s.hi*n.lay.outStride)
	for _, c := range n.creditQueue {
		if c.due <= n.now && c.out >= lo && c.out < hi {
			n.credits[c.out]++
		}
	}
}

// routeStageShard is routeStage over the shard's slice of the route
// work list: decisions run on the shard's context, trace events are
// deferred.
func (n *Network) routeStageShard(s *shard) {
	n.routeSet.forEach(s.lo, s.hi, func(node, slot int) {
		n.routeOne(s.alg, node, slot, &s.ops)
	})
}

// allocStageShard is allocStage over the shard's slice of the VA work
// list. The selector is shard-safe (per-node state only) and the load
// view reads nothing but the deciding router's outputs.
func (n *Network) allocStageShard(s *shard) {
	// Mirrors allocStage's credit gate: credits are only mutated in the
	// serial phases, so reading them during the parallel VA pass is
	// race-free and deterministic.
	needCredit := routing.AllocNeedsCredit(n.alg)
	n.vaSet.forEach(s.lo, s.hi, func(node, slot int) {
		s.free = n.allocOne(s.alg, node, slot, needCredit, s.free, &s.ops)
	})
}

// switchStageShard is switchStage over the shard's slice of the SA
// work list: nomination and grant are router-local; the granted
// movements land in the shard's move list for the serial applyMoves
// commit, blocked events in the shard's op list.
func (n *Network) switchStageShard(s *shard) {
	moves := s.moves[:0]
	n.saSet.forEachNode(s.lo, s.hi, func(node int) {
		if n.isDead(node) {
			return
		}
		moves = n.switchNode(node, s.noms, moves, &s.ops)
	})
	s.moves = moves
}

// drainStageShard is drainStage over the shard's slice of the drain
// work list: ejection and absorption are router-local; credits, stats,
// epoch releases, slot frees and events are deferred.
func (n *Network) drainStageShard(s *shard) {
	n.drainSet.forEach(s.lo, s.hi, func(node, slot int) {
		n.drainOne(node, slot, &s.delta, &s.ops)
	})
}
