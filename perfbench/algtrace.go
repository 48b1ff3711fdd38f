package main

import (
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/routing"
)

// algCounters is the routing and diagnosis work one timed algorithm
// instance saw. Each instance is driven by one goroutine (the network
// stepping it), so the fields are plain; they are read only after the
// run that owns the instance has returned.
type algCounters struct {
	layer     string // "routing", "rulesets" or "rules"
	decisions int64
	decideNs  int64
	diagCalls int64
	diagNs    int64
}

// algSet collects the counters of every instance a run created.
type algSet struct {
	mu   sync.Mutex
	all  []*algCounters
	rec  *recorder
	span uint64 // parent span of new instances' sampled spans
	tr   uint64
	// builds and buildNs count engine constructions (rule program
	// compilation plus dense tables) timed by the campaign factory.
	builds, buildNs int64
}

// noteBuild records one engine construction.
func (s *algSet) noteBuild(start, end time.Time) {
	s.mu.Lock()
	s.builds++
	s.buildNs += int64(end.Sub(start))
	span, tr := s.span, s.tr
	s.mu.Unlock()
	s.rec.add("rulesets.build", s.rec.newID(), span, tr, 0, start, end)
}

func (s *algSet) newCounters(layer string) *algCounters {
	c := &algCounters{layer: layer}
	s.mu.Lock()
	s.all = append(s.all, c)
	s.mu.Unlock()
	return c
}

// setParent sets the span new instances attach their spans to (no-op
// on a nil set, as in untraced runs).
func (s *algSet) setParent(span, trace uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.span, s.tr = span, trace
	s.mu.Unlock()
}

func (s *algSet) parent() (uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.span, s.tr
}

// totals sums the counters per layer; call it only once the runs that
// drive the instances have returned.
func (s *algSet) totals() map[string]*algCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]*algCounters{}
	for _, c := range s.all {
		t := out[c.layer]
		if t == nil {
			t = &algCounters{layer: c.layer}
			out[c.layer] = t
		}
		t.decisions += c.decisions
		t.decideNs += c.decideNs
		t.diagCalls += c.diagCalls
		t.diagNs += c.diagNs
	}
	return out
}

// decisionMetrics names the time and count metric of each decorator
// layer.
var decisionMetrics = map[string][2]string{
	"routing":  {"routing.decide_ns", "routing.decisions"},
	"rulesets": {"rulesets.fast_decide_ns", "rulesets.fast_decisions"},
	"rules":    {"rules.interp_decide_ns", "rules.interp_decisions"},
}

// setAlgLayers fills the routing, rulesets, rules and fault layer
// metrics from the decorator totals.
func setAlgLayers(layers map[string]float64, tot map[string]*algCounters) (decideNs, diagNs int64) {
	for _, c := range tot {
		decideNs += c.decideNs
		diagNs += c.diagNs
	}
	for layer, c := range tot {
		names := decisionMetrics[layer]
		if c.decisions > 0 {
			layers[names[0]] = float64(c.decideNs) / float64(c.decisions)
		}
		layers[names[1]] = float64(c.decisions)
	}
	var calls int64
	for _, c := range tot {
		calls += c.diagCalls
	}
	layers["fault.diagnosis_calls"] = float64(calls)
	if calls > 0 {
		layers["fault.diagnosis_us"] = float64(diagNs) / float64(calls) / 1e3
	}
	return decideNs, diagNs
}

// decisionSampleMask keeps one routing decision in 4096 as a span; the
// counters see every decision.
const decisionSampleMask = 4095

// timedAlg times Route/RouteAppend and UpdateFaults of the algorithm it
// wraps. It implements every optional capability the network, sim,
// campaign and reconfig packages type-assert on (BufferedAlgorithm,
// UnreachableJudge, CreditGatedVA, ReconfigFlusher, DeadlockRegimer,
// AttachLoads, Blocks, InvalidateTables) and answers each exactly as
// the caller's fallback would when the wrapped algorithm lacks it, so
// a traced simulation is decision-for-decision the untraced one. The
// parallel-stepping capabilities are not forwarded: a wrapped
// algorithm steps on the serial engine, which is what every workload
// uses.
type timedAlg struct {
	inner  routing.Algorithm
	c      *algCounters
	rec    *recorder
	parent uint64
	trace  uint64
}

func newTimedAlg(inner routing.Algorithm, layer string, set *algSet, parent, trace uint64) *timedAlg {
	return &timedAlg{inner: inner, c: set.newCounters(layer), rec: set.rec, parent: parent, trace: trace}
}

func (t *timedAlg) Name() string                                     { return t.inner.Name() }
func (t *timedAlg) NumVCs() int                                      { return t.inner.NumVCs() }
func (t *timedAlg) Steps(req routing.Request) int                    { return t.inner.Steps(req) }
func (t *timedAlg) NoteHop(req routing.Request, c routing.Candidate) { t.inner.NoteHop(req, c) }

func (t *timedAlg) Route(req routing.Request) []routing.Candidate {
	start := time.Now()
	out := t.inner.Route(req)
	t.note(start, time.Now())
	return out
}

func (t *timedAlg) RouteAppend(req routing.Request, buf []routing.Candidate) []routing.Candidate {
	start := time.Now()
	out := routing.RouteInto(t.inner, req, buf)
	t.note(start, time.Now())
	return out
}

func (t *timedAlg) note(start, end time.Time) {
	t.c.decisions++
	t.c.decideNs += int64(end.Sub(start))
	if t.rec != nil && t.c.decisions&decisionSampleMask == 0 {
		t.rec.add(t.c.layer+".decide", t.rec.newID(), t.parent, t.trace, 0, start, end)
	}
}

func (t *timedAlg) UpdateFaults(f *fault.Set) {
	start := time.Now()
	t.inner.UpdateFaults(f)
	end := time.Now()
	t.c.diagCalls++
	t.c.diagNs += int64(end.Sub(start))
	t.rec.add("fault.diagnosis", t.rec.newID(), t.parent, t.trace, 0, start, end)
}

func (t *timedAlg) UnreachableVerdict(req routing.Request) bool {
	if j, ok := t.inner.(routing.UnreachableJudge); ok {
		return j.UnreachableVerdict(req)
	}
	return false
}

func (t *timedAlg) AllocNeedsCredit() bool { return routing.AllocNeedsCredit(t.inner) }

func (t *timedAlg) FlushOnFault(h *routing.Header) bool {
	if f, ok := t.inner.(routing.ReconfigFlusher); ok {
		return f.FlushOnFault(h)
	}
	return false
}

func (t *timedAlg) DeadlockRegime() string { return routing.RegimeOf(t.inner) }

func (t *timedAlg) AttachLoads(v routing.LoadView) {
	if a, ok := t.inner.(interface{ AttachLoads(routing.LoadView) }); ok {
		a.AttachLoads(v)
	}
}

func (t *timedAlg) Blocks() *fault.BlockInfo {
	if b, ok := t.inner.(interface{ Blocks() *fault.BlockInfo }); ok {
		return b.Blocks()
	}
	return nil
}

func (t *timedAlg) InvalidateTables() {
	if i, ok := t.inner.(interface{ InvalidateTables() }); ok {
		i.InvalidateTables()
	}
}

var (
	_ routing.BufferedAlgorithm = (*timedAlg)(nil)
	_ routing.UnreachableJudge  = (*timedAlg)(nil)
	_ routing.CreditGatedVA     = (*timedAlg)(nil)
	_ routing.ReconfigFlusher   = (*timedAlg)(nil)
	_ routing.DeadlockRegimer   = (*timedAlg)(nil)
)
