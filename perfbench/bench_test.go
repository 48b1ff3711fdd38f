package main

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/topology"
)

// TestTracedDigestMatchesUntraced pins the decorator and the hooks: on
// every workload the traced run must simulate, and serve, exactly what
// the untraced run does.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for name, fn := range workloads {
		t.Run(name, func(t *testing.T) {
			// fleet-wide needs caller 0 to reach a fault write inside
			// the window, also under the race detector.
			window := 200 * time.Millisecond
			if name == "fleet-wide" {
				window = 3 * time.Second
			}
			var digests [2]string
			for i, traced := range []bool{false, true} {
				cfg := &config{workload: name, seed: 7, window: window, trace: traced,
					spansDir: t.TempDir(), inputSeed: int64(splitmix(7 ^ devSalt))}
				out, err := fn(cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if len(out.checks) > 0 || out.failed > 0 {
					t.Fatalf("trace=%v: %d failed, checks %v", traced, out.failed, out.checks)
				}
				digests[i] = out.digest
			}
			if digests[0] != digests[1] {
				t.Fatalf("traced digest %s, untraced %s", digests[1], digests[0])
			}
		})
	}
}

// TestTimedAlgCapabilities checks that every optional capability the
// callers type-assert on answers through the decorator exactly as it
// does on the wrapped algorithm, or as the callers' fallback does when
// the wrapped algorithm lacks it.
func TestTimedAlgCapabilities(t *testing.T) {
	mesh := topology.NewMesh(6, 6)
	cube := topology.NewHypercube(4)
	ruleNAFTA, err := rulesets.NewRuleNAFTA(mesh)
	if err != nil {
		t.Fatal(err)
	}
	ruleRouteC, err := rulesets.NewRuleRouteC(cube)
	if err != nil {
		t.Fatal(err)
	}
	ruleMaze, err := rulesets.NewRuleMaze(mesh)
	if err != nil {
		t.Fatal(err)
	}
	maze, err := routing.NewMaze(mesh)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		g   topology.Graph
		alg routing.Algorithm
	}{
		{mesh, routing.NewNAFTA(mesh)},
		{mesh, ruleNAFTA},
		{cube, routing.NewRouteC(cube)},
		{cube, ruleRouteC},
		{mesh, maze},
		{mesh, ruleMaze},
	}
	for _, c := range cases {
		f := fault.NewSet()
		f.FailNode(topology.NodeID(c.g.Nodes() / 2))
		c.alg.UpdateFaults(f)
		set := &algSet{}
		dec := newTimedAlg(c.alg, "routing", set, 0, 0)
		name := c.alg.Name()
		if got, want := routing.RegimeOf(dec), routing.RegimeOf(c.alg); got != want {
			t.Errorf("%s: regime %q, want %q", name, got, want)
		}
		if got, want := routing.AllocNeedsCredit(dec), routing.AllocNeedsCredit(c.alg); got != want {
			t.Errorf("%s: AllocNeedsCredit %v, want %v", name, got, want)
		}
		var wantBlocks *fault.BlockInfo
		if b, ok := c.alg.(interface{ Blocks() *fault.BlockInfo }); ok {
			wantBlocks = b.Blocks()
		}
		if dec.Blocks() != wantBlocks {
			t.Errorf("%s: Blocks not forwarded", name)
		}
		judge, isJudge := c.alg.(routing.UnreachableJudge)
		flusher, isFlusher := c.alg.(routing.ReconfigFlusher)
		for dst := 0; dst < c.g.Nodes(); dst++ {
			hdr := routing.Header{Src: 0, Dst: topology.NodeID(dst), Length: 4}
			req := routing.Request{Node: 0, InPort: routing.InjectionPort, Hdr: &hdr}
			want := routing.RouteInto(c.alg, req, nil)
			got := routing.RouteInto(dec, req, nil)
			if len(got) != len(want) {
				t.Fatalf("%s dst %d: %v, want %v", name, dst, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s dst %d: %v, want %v", name, dst, got, want)
				}
			}
			if got, want := dec.UnreachableVerdict(req), isJudge && judge.UnreachableVerdict(req); got != want {
				t.Errorf("%s dst %d: verdict %v, want %v", name, dst, got, want)
			}
			if got, want := dec.FlushOnFault(&hdr), isFlusher && flusher.FlushOnFault(&hdr); got != want {
				t.Errorf("%s dst %d: flush %v, want %v", name, dst, got, want)
			}
		}
		if tot := set.totals()["routing"]; tot == nil || tot.decisions != int64(c.g.Nodes()) {
			t.Errorf("%s: decorator counted %+v decisions, want %d", name, tot, c.g.Nodes())
		}
	}
}
