package reconfig

import (
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/routing"
	"repro/internal/rulesets"
	"repro/internal/topology"
)

func newTestService(t *testing.T, shards int) (*Service, *Artifact, *topology.Mesh) {
	t.Helper()
	art := buildNAFTA(t, 1)
	m := topology.NewMesh(6, 6)
	svc, err := NewService(art, m, shards)
	if err != nil {
		t.Fatal(err)
	}
	return svc, art, m
}

func injectionRequest(rng *rand.Rand, nodes int) DecisionRequest {
	src := rng.Intn(nodes)
	dst := rng.Intn(nodes)
	for dst == src {
		dst = rng.Intn(nodes)
	}
	return DecisionRequest{
		Node: src, InPort: routing.InjectionPort, InVC: 0,
		Src: src, Dst: dst, Length: 4,
	}
}

// Service decisions must agree with a directly built adapter on the
// same topology and fault-free state.
func TestServiceDecisionsMatchAdapter(t *testing.T) {
	svc, _, m := newTestService(t, 4)
	ref, err := rulesets.NewRuleNAFTA(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var buf []routing.Candidate
	for i := 0; i < 500; i++ {
		req := injectionRequest(rng, m.Nodes())
		got, epoch, err := svc.Decide(&req, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if epoch != 1 {
			t.Fatalf("decision under epoch %d, want 1", epoch)
		}
		hdr := routing.Header{Src: topology.NodeID(req.Src), Dst: topology.NodeID(req.Dst), Length: req.Length}
		want := ref.Route(routing.Request{Node: topology.NodeID(req.Node), InPort: req.InPort, Hdr: &hdr})
		if len(got) != len(want) {
			t.Fatalf("request %+v: %d candidates, reference has %d", req, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("request %+v: candidate %d is %+v, reference %+v", req, j, got[j], want[j])
			}
		}
		buf = got
	}
}

func TestServiceRejectsMalformedRequests(t *testing.T) {
	svc, _, m := newTestService(t, 1)
	bad := []DecisionRequest{
		{Node: -1, Src: 0, Dst: 1},
		{Node: m.Nodes(), Src: 0, Dst: 1},
		{Node: 0, Src: -3, Dst: 1},
		{Node: 0, Src: 0, Dst: 99},
		{Node: 0, InPort: 77, Src: 0, Dst: 1},
	}
	for _, req := range bad {
		if _, _, err := svc.Decide(&req, nil); err == nil {
			t.Errorf("malformed request %+v accepted", req)
		}
	}
	if got := svc.Metrics().Failed; got != int64(len(bad)) {
		t.Errorf("failed counter %d, want %d", got, len(bad))
	}
}

// The steady-state decision path must not allocate: the artifact's
// promise is the simulator's zero-alloc fast path, served concurrently.
func TestServiceDecideZeroAllocs(t *testing.T) {
	svc, _, m := newTestService(t, 2)
	req := injectionRequest(rand.New(rand.NewSource(1)), m.Nodes())
	buf := make([]routing.Candidate, 0, 8)
	// Warm the path (lazy scratch growth inside the machine happens on
	// early decisions).
	for i := 0; i < 100; i++ {
		if _, _, err := svc.Decide(&req, buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := svc.Decide(&req, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decide allocates %.1f objects per call", allocs)
	}
}

// Reload under concurrent decision load: no decision may fail, the
// epoch must advance, and every post-reload decision must come from
// the new epoch. Run with -race this doubles as the locking proof.
func TestServiceConcurrentReload(t *testing.T) {
	svc, art, m := newTestService(t, 4)
	const (
		workers   = 8
		perWorker = 300
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]routing.Candidate, 0, 8)
			for i := 0; i < perWorker; i++ {
				req := injectionRequest(rng, m.Nodes())
				cands, _, err := svc.Decide(&req, buf[:0])
				if err != nil {
					errs <- err
					return
				}
				if len(cands) == 0 {
					errs <- errUnroutable
					return
				}
				buf = cands
			}
		}(int64(w + 1))
	}
	// Two reloads race with the decision load.
	for r := 0; r < 2; r++ {
		next := *art
		next.Epoch = 0 // unversioned: Reload advances to current+1
		if _, err := svc.Reload(&next); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ms := svc.Metrics()
	if ms.Epoch != 3 {
		t.Fatalf("epoch %d after two reloads, want 3", ms.Epoch)
	}
	if ms.Failed != 0 || ms.Unroutable != 0 {
		t.Fatalf("%d failed, %d unroutable under reload", ms.Failed, ms.Unroutable)
	}
	if ms.Decisions != workers*perWorker {
		t.Fatalf("%d decisions recorded, want %d", ms.Decisions, workers*perWorker)
	}
	if ms.Reloads != 2 {
		t.Fatalf("%d reloads recorded, want 2", ms.Reloads)
	}
	// A versioned artifact keeps its own (higher) epoch.
	next := *art
	next.Epoch = 40
	if epoch, err := svc.Reload(&next); err != nil || epoch != 40 {
		t.Fatalf("versioned reload: epoch %d, err %v (want 40)", epoch, err)
	}
}

var errUnroutable = &unroutableError{}

type unroutableError struct{}

func (*unroutableError) Error() string { return "fault-free decision judged unroutable" }

// A decision slower than the latency histogram's top bin must not make
// the metrics document unencodable: the overflow percentile reports
// the observed maximum, never +Inf.
func TestMetricsJSONWithOverflowSample(t *testing.T) {
	svc, _, _ := newTestService(t, 1)
	svc.latMu.Lock()
	svc.lat.Add(1e6) // 1 s, far past the top bin
	svc.latMu.Unlock()
	m := svc.Metrics()
	if _, err := json.Marshal(m); err != nil {
		t.Fatalf("metrics with an overflow sample do not encode: %v", err)
	}
	if m.LatencyP99 != 1e6 {
		t.Fatalf("p99 = %v, want the observed max 1e6", m.LatencyP99)
	}
}
