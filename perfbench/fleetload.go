package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fleetSpec is one closed-loop fleet workload: nproc callers, each with
// one /decide/batch in flight through fleet.NewClient with default
// options, against 2 in-process replicas serving NAFTA on loopback.
type fleetSpec struct {
	side     int
	midRoute bool
	// writeEvery > 0 makes caller 0 broadcast POST /fault after every
	// writeEvery of its batches, cycling through a seeded list of
	// cumulative fault sets.
	writeEvery int
}

// fleet-hot: 8x8 injection-time decisions, 4,032 distinct keys, so the
// memoization cache answers nearly everything and HTTP, JSON and
// scatter dominate.
var fleetHot = fleetSpec{side: 8}

// fleet-wide: 64x64 mid-route decisions (random node, in_port, in_vc,
// src, dst), so almost every decision misses the cache and runs the
// dense lookup, plus fault writes that run the diagnosis fixpoint on
// every lane and invalidate the cache.
var fleetWide = fleetSpec{side: 64, midRoute: true, writeEvery: 400}

const (
	fleetReplicas   = 2
	fleetBatch      = 16
	fleetCache      = 65536
	fleetSetups     = 64
	fleetWarmup     = time.Second
	fleetFaultSets  = 8
	fleetProbes     = 128 // probe batches for the served-answers digest
	fleetReplayMax  = 1 << 17
	fleetSpanSample = 15 // sub-batches whose payload hash&15 == 0 become spans
	// fleetLogRate is the batches per second per caller the caller logs
	// are sized for up front, ~4x what fleet-hot reaches on 2 CPUs.
	fleetLogRate = 16384
	probeCaller  = 1 << 20
)

func runFleetHot(cfg *config) (*outcome, error)  { return runFleet(cfg, fleetHot) }
func runFleetWide(cfg *config) (*outcome, error) { return runFleet(cfg, fleetWide) }

// request fills r with request seq of caller, a pure function of the
// input seed, so the check can regenerate it.
func (s fleetSpec) request(seed uint64, caller, seq int, nodes int, r *reconfig.DecisionRequest) {
	h := splitmix(seed ^ uint64(caller)<<40 ^ uint64(seq))
	if !s.midRoute {
		p := int(h % uint64(nodes*(nodes-1)))
		src, dst := p/(nodes-1), p%(nodes-1)
		if dst >= src {
			dst++
		}
		*r = reconfig.DecisionRequest{Node: src, InPort: routing.InjectionPort, Src: src, Dst: dst, Length: 4}
		return
	}
	h2 := splitmix(h)
	src := int(h2 % uint64(nodes))
	dst := int((h2 >> 32) % uint64(nodes-1))
	if dst >= src {
		dst++
	}
	*r = reconfig.DecisionRequest{
		Node:   int(h % uint64(nodes)),
		InPort: int((h >> 32) % topology.MeshPorts),
		InVC:   int((h >> 40) % 2),
		Src:    src,
		Dst:    dst,
		Length: 4,
	}
}

// hashAnswer feeds one served decision (candidates in order, closed by
// a separator) into h.
func hashAnswer(h hash.Hash32, cands []routing.Candidate) {
	var b [2]byte
	for _, c := range cands {
		b[0], b[1] = byte(c.Port), byte(c.VC)
		h.Write(b[:])
	}
	b[0] = 0xFF
	h.Write(b[:1])
}

// answerHash fingerprints one served decision.
func answerHash(cands []routing.Candidate) uint32 {
	h := fnv.New32a()
	hashAnswer(h, cands)
	return h.Sum32()
}

// replicaHost is one in-process replica on a loopback listener.
type replicaHost struct {
	srv  *fleet.Server
	hs   *http.Server
	done chan struct{}
	url  string
}

// fleetHost is the set-up product: replicas plus the client.
type fleetHost struct {
	art      *reconfig.Artifact
	g        topology.Graph
	replicas []*replicaHost
	client   *fleet.Client
}

// startFleet builds the artifact, the topology and the replicas and
// starts serving; wrap, when non-nil, decorates each replica's mux.
func startFleet(side, lanes int, wrap func(http.Handler) http.Handler) (*fleetHost, error) {
	art, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: 1})
	if err != nil {
		return nil, err
	}
	h := &fleetHost{art: art, g: topology.NewMesh(side, side)}
	urls := make([]string, 0, fleetReplicas)
	for i := 0; i < fleetReplicas; i++ {
		srv, err := fleet.NewServer(art, nil, h.g, fleet.Options{
			Shards:       lanes,
			CacheEntries: fleetCache,
			Shard:        fleet.ShardInfo{Index: i, Count: fleetReplicas},
		})
		if err != nil {
			h.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.close()
			return nil, err
		}
		var handler http.Handler = srv.Mux()
		if wrap != nil {
			handler = wrap(handler)
		}
		r := &replicaHost{srv: srv, hs: &http.Server{Handler: handler}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
		go func() {
			defer close(r.done)
			_ = r.hs.Serve(ln) // returns http.ErrServerClosed on close
		}()
		h.replicas = append(h.replicas, r)
		urls = append(urls, r.url)
	}
	h.client, err = fleet.NewClient(urls, fleet.ClientOptions{})
	if err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close stops every replica and waits for its Serve goroutine.
func (h *fleetHost) close() {
	for _, r := range h.replicas {
		r.hs.Close()
		<-r.done
	}
	h.replicas = nil
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// faultSets draws the cumulative fault list of fleet-wide: set k holds
// the first k+1 nodes of one seeded, connectivity-keeping draw.
func faultSets(g topology.Graph, seed int64) ([]*fault.Set, [][]byte, error) {
	all, err := fault.Random(g, fault.RandomOptions{Nodes: fleetFaultSets, Seed: seed, KeepConnected: true})
	if err != nil {
		return nil, nil, err
	}
	nodes := all.FaultyNodes()
	sets := make([]*fault.Set, len(nodes))
	payloads := make([][]byte, len(nodes))
	for k := range nodes {
		req := fleet.FaultRequest{}
		for _, n := range nodes[:k+1] {
			req.Nodes = append(req.Nodes, int(n))
		}
		if sets[k], err = req.Set(g); err != nil {
			return nil, nil, err
		}
		if payloads[k], err = json.Marshal(req); err != nil {
			return nil, nil, err
		}
	}
	return sets, payloads, nil
}

// stateSet is the fault state after w completed writes.
func stateSet(sets []*fault.Set, w int) *fault.Set {
	if w == 0 {
		return fault.NewSet()
	}
	return sets[(w-1)%len(sets)]
}

// callerLog is what one caller recorded. Batch b of a caller covers
// request seqs [b*fleetBatch, (b+1)*fleetBatch).
type callerLog struct {
	// hashes holds one fingerprint per batch over its answers in seq
	// order, not one per decision, so the log stays small.
	hashes   []uint32
	states   []int32 // per batch: completed writes, or -1 (overlapped a write, or failed)
	rtts     []time.Duration
	inWindow int64 // decisions of batches inside the window
	failed   int64
	writes   []time.Duration // fault write latencies inside the window
	errs     []string        // the first few errors
}

// newCallerLog sizes the per-batch logs for fleetLogRate batches per
// second over the run and writes them once, so they are resident before
// the first batch. Growing them by append would tie the peak RSS, and
// the collector's heap goal, to the throughput of the run.
func newCallerLog(run time.Duration) *callerLog {
	n := int(run.Seconds()*fleetLogRate) + 1
	l := &callerLog{
		hashes: make([]uint32, n),
		states: make([]int32, n),
		rtts:   make([]time.Duration, n),
	}
	clear(l.hashes)
	clear(l.states)
	clear(l.rtts)
	l.hashes, l.states, l.rtts = l.hashes[:0], l.states[:0], l.rtts[:0]
	return l
}

func (l *callerLog) noteErr(e string) {
	if len(l.errs) < 3 {
		l.errs = append(l.errs, e)
	}
}

// clientLayers aggregates the httptrace and middleware timings.
type clientLayers struct {
	mu                       sync.Mutex
	subs, batches            int64
	encode, connWait, decode time.Duration
	serverWait               time.Duration
	serverWaitN              int64
	gotConn, reused          int64
	dials                    atomic.Int64
	handlerNs, handlerN      atomic.Int64
}

// batchTrace follows one DecideBatch call through httptrace. The two
// sub-batch requests share the context, so connection events are
// matched by replica address; write and first-byte events carry no
// address and enter the aggregate as sums, which pairs them without
// needing to know which sub-request each belongs to.
type batchTrace struct {
	mu        sync.Mutex
	getConn   map[string]time.Time
	gotConn   map[string]time.Time
	reused    int
	wrote     []time.Time
	firstByte []time.Time
}

func (bt *batchTrace) clientTrace(cl *clientLayers) *httptrace.ClientTrace {
	return &httptrace.ClientTrace{
		GetConn: func(hostPort string) {
			t := time.Now()
			bt.mu.Lock()
			bt.getConn[hostPort] = t
			bt.mu.Unlock()
		},
		GotConn: func(info httptrace.GotConnInfo) {
			t := time.Now()
			bt.mu.Lock()
			bt.gotConn[info.Conn.RemoteAddr().String()] = t
			if info.Reused {
				bt.reused++
			}
			bt.mu.Unlock()
		},
		ConnectStart: func(string, string) { cl.dials.Add(1) },
		WroteRequest: func(httptrace.WroteRequestInfo) {
			t := time.Now()
			bt.mu.Lock()
			bt.wrote = append(bt.wrote, t)
			bt.mu.Unlock()
		},
		GotFirstResponseByte: func() {
			t := time.Now()
			bt.mu.Lock()
			bt.firstByte = append(bt.firstByte, t)
			bt.mu.Unlock()
		},
	}
}

// fold adds a finished batch to the aggregate; it runs after
// DecideBatch returned, when no hook can fire any more.
func (bt *batchTrace) fold(cl *clientLayers, t0, t1 time.Time) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.batches++
	for host, g := range bt.getConn {
		got, ok := bt.gotConn[host]
		if !ok {
			continue
		}
		cl.subs++
		cl.encode += g.Sub(t0)
		cl.connWait += got.Sub(g)
	}
	cl.gotConn += int64(len(bt.gotConn))
	cl.reused += int64(bt.reused)
	if len(bt.wrote) == len(bt.firstByte) && len(bt.wrote) > 0 {
		var last time.Time
		for i := range bt.wrote {
			cl.serverWait += bt.firstByte[i].Sub(bt.wrote[i])
			if bt.firstByte[i].After(last) {
				last = bt.firstByte[i]
			}
		}
		cl.serverWaitN += int64(len(bt.wrote))
		cl.decode += t1.Sub(last)
	}
}

// payloadHash is the FNV-64a of a sub-batch body, computable on both
// sides: the client recomputes fleet.Owner scatter plus json.Marshal,
// the replica middleware hashes the bytes it received.
func payloadHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64() | 1 // never 0, which means "no link"
}

// middleware times every replica request and records sampled spans
// whose link is the payload hash.
func middleware(rec *recorder, cl *clientLayers) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			next.ServeHTTP(w, r)
			end := time.Now()
			if r.URL.Path != "/decide/batch" {
				rec.add("server"+r.URL.Path, rec.newID(), 0, rec.newID(), 0, start, end)
				return
			}
			cl.handlerNs.Add(int64(end.Sub(start)))
			cl.handlerN.Add(1)
			if h := payloadHash(body); h&fleetSpanSample == 1 {
				rec.add("server.handler", rec.newID(), 0, 0, h, start, end)
			}
		})
	}
}

// loop is one caller's closed loop: issue a batch, wait for it, record
// it, repeat until stopAt.
func (s fleetSpec) loop(h *fleetHost, seed uint64, caller int, winStart, stopAt time.Time,
	gen *atomic.Int64, payloads [][]byte, rec *recorder, cl *clientLayers, log *callerLog) {
	nodes := h.g.Nodes()
	reqs := make([]reconfig.DecisionRequest, fleetBatch)
	answers := fnv.New32a()
	writes := 0
	for b := 0; ; b++ {
		if time.Now().After(stopAt) {
			return
		}
		for i := range reqs {
			s.request(seed, caller, b*fleetBatch+i, nodes, &reqs[i])
		}
		ctx := context.Background()
		var bt *batchTrace
		var hashes []uint64
		if rec != nil {
			bt = &batchTrace{getConn: map[string]time.Time{}, gotConn: map[string]time.Time{}}
			ctx = httptrace.WithClientTrace(ctx, bt.clientTrace(cl))
			hashes = subBatchHashes(reqs)
		}
		g0 := gen.Load()
		t0 := time.Now()
		out, err := h.client.DecideBatch(ctx, reqs)
		t1 := time.Now()
		g1 := gen.Load()
		state := int32(-1)
		if err == nil && g0 == g1 && g0%2 == 0 {
			state = int32(g0 / 2)
		}
		inWin := !t0.Before(winStart) && !t1.After(stopAt)
		if err != nil {
			log.failed += fleetBatch
			log.noteErr(err.Error())
			log.hashes = append(log.hashes, 0)
		} else {
			answers.Reset()
			for _, d := range out {
				if d.Error != "" {
					log.failed++
					log.noteErr(d.Error)
				}
				hashAnswer(answers, d.Candidates)
			}
			log.hashes = append(log.hashes, answers.Sum32())
		}
		log.states = append(log.states, state)
		if inWin {
			log.rtts = append(log.rtts, t1.Sub(t0))
			log.inWindow += fleetBatch
		}
		if bt != nil {
			bt.fold(cl, t0, t1)
			recordBatchSpans(rec, bt, hashes, t0, t1)
		}
		if s.writeEvery > 0 && caller == 0 && (b+1)%s.writeEvery == 0 {
			w0 := time.Now()
			gen.Add(1)
			_, err := h.client.Broadcast(context.Background(), "/fault", payloads[writes%len(payloads)])
			gen.Add(1)
			w1 := time.Now()
			writes++
			if err != nil {
				log.failed++
				log.noteErr("fault write: " + err.Error())
			}
			if !w0.Before(winStart) && !w1.After(stopAt) {
				log.writes = append(log.writes, w1.Sub(w0))
			}
			rec.add("client.fault_write", rec.newID(), 0, rec.newID(), 0, w0, w1)
		}
	}
}

// subBatchHashes scatters reqs exactly as fleet.Client.DecideBatch does
// and hashes each sub-batch body.
func subBatchHashes(reqs []reconfig.DecisionRequest) []uint64 {
	subs := make([][]reconfig.DecisionRequest, fleetReplicas)
	for i := range reqs {
		o := fleet.Owner(reqs[i].Node, fleetReplicas)
		subs[o] = append(subs[o], reqs[i])
	}
	var out []uint64
	for _, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		b, err := json.Marshal(sub)
		if err != nil {
			continue
		}
		out = append(out, payloadHash(b))
	}
	return out
}

// recordBatchSpans keeps the sampled sub-batches of one batch as spans:
// the batch, its sub-batch (linked to the replica's handler span by
// payload hash), and the connection wait per replica.
func recordBatchSpans(rec *recorder, bt *batchTrace, hashes []uint64, t0, t1 time.Time) {
	sampled := false
	for _, h := range hashes {
		if h&fleetSpanSample == 1 {
			sampled = true
		}
	}
	if !sampled {
		return
	}
	id := rec.newID()
	rec.add("client.batch", id, 0, id, 0, t0, t1)
	for _, h := range hashes {
		if h&fleetSpanSample == 1 {
			rec.add("client.sub_batch", rec.newID(), id, id, h, t0, t1)
		}
	}
	for host, g := range bt.getConn {
		rec.add("client.encode", rec.newID(), id, id, 0, t0, g)
		if got, ok := bt.gotConn[host]; ok {
			rec.add("client.conn_wait", rec.newID(), id, id, 0, g, got)
		}
	}
}

func runFleet(cfg *config, spec fleetSpec) (*outcome, error) {
	out := &outcome{}
	var rec *recorder
	var cl *clientLayers
	var wrap func(http.Handler) http.Handler
	if cfg.trace {
		rec = newRecorder()
		cl = &clientLayers{}
		wrap = middleware(rec, cl)
		out.layers = map[string]float64{}
	}
	lanes := runtime.GOMAXPROCS(0)
	// Half the set-ups run before the window (the last one serves) and
	// half after it, so the median spans two moments of the host.
	setups, host, err := timeSetups(nil, fleetSetups/2, spec.side, lanes, wrap)
	if err != nil {
		return nil, err
	}
	defer func() { host.close() }()

	seed := uint64(cfg.inputSeed)
	sets, payloads, err := faultSets(host.g, int64(splitmix(seed)))
	if err != nil {
		return nil, err
	}
	callers := runtime.NumCPU()
	logs := make([]*callerLog, callers)
	var gen atomic.Int64
	winStart := time.Now().Add(fleetWarmup)
	stopAt := winStart.Add(cfg.window)
	var wg sync.WaitGroup
	var cache0 fleet.CacheMetrics
	mem0 := readMem()
	for c := 0; c < callers; c++ {
		logs[c] = newCallerLog(fleetWarmup + cfg.window)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			spec.loop(host, seed, c, winStart, stopAt, &gen, payloads, rec, cl, logs[c])
		}(c)
	}
	if cfg.trace {
		// Cache counters over the window only.
		time.Sleep(time.Until(winStart))
		cache0 = cacheTotals(host)
	}
	wg.Wait()
	mem1 := readMem()
	cache1 := cacheTotals(host)

	var decisions, issued int64
	var writes []time.Duration
	samples := 0
	for _, l := range logs {
		samples += len(l.rtts)
		decisions += l.inWindow
		issued += int64(len(l.hashes)) * fleetBatch
		out.failed += l.failed
		writes = append(writes, l.writes...)
		for _, e := range l.errs {
			out.checks = append(out.checks, "decision error: "+e)
		}
	}
	if spec.writeEvery > 0 && len(writes) == 0 {
		out.checks = append(out.checks, "no fault write completed inside the window")
	}

	// Check every answer of a batch that saw one fault state against a
	// single-node service under that state.
	mism, checked, err := checkFleet(host, spec, seed, sets, logs)
	if err != nil {
		return nil, err
	}
	out.failed += mism
	if mism > 0 {
		out.checks = append(out.checks, fmt.Sprintf("%d of %d checked decisions are in batches whose answers differ from the single-node reference", mism, checked))
	}

	// Probe digest: a fixed request stream under a fixed final state,
	// so traced and untraced runs of one seed serve the same answers.
	final := fault.NewSet()
	if spec.writeEvery > 0 {
		if _, err := host.client.Broadcast(context.Background(), "/fault", payloads[len(payloads)-1]); err != nil {
			return nil, err
		}
		final = sets[len(sets)-1]
	}
	digest, pmism, err := probeFleet(host, spec, seed, final)
	if err != nil {
		return nil, err
	}
	out.digest = digest
	out.attempted = issued + fleetProbes*fleetBatch
	out.failed += pmism
	if pmism > 0 {
		out.checks = append(out.checks, fmt.Sprintf("%d probe decisions differ from the single-node reference", pmism))
	}

	lat := make([]float64, 0, samples)
	for _, l := range logs {
		for _, d := range l.rtts {
			lat = append(lat, float64(d)/float64(time.Microsecond))
		}
	}
	sort.Float64s(lat)
	replayed := len(logs[0].hashes)
	// Drop the logs before the second half of the set-ups, so neither
	// those set-ups nor the peak RSS depend on the run's throughput.
	logs = nil
	host.close()
	runtime.GC()
	setups, next, err := timeSetups(setups, fleetSetups/2, spec.side, lanes, wrap)
	if err != nil {
		return nil, err
	}
	host = next
	if err := setE2E(out, setups, float64(decisions)/cfg.window.Seconds(), lat); err != nil {
		return nil, err
	}
	out.info = append(out.info, fmt.Sprintf("%s: %d callers, %d batches in window, %d decisions checked, %d fault writes in window",
		cfg.workload, callers, samples, checked, len(writes)))
	if cfg.trace {
		l := out.layers
		setClientLayers(l, cl)
		if n := (cache1.Hits - cache0.Hits) + (cache1.Misses - cache0.Misses); n > 0 {
			l["cache.hit_ratio"] = float64(cache1.Hits-cache0.Hits) / float64(n)
		}
		l["cache.invalidations"] = float64(cache1.Invalidations - cache0.Invalidations)
		if len(writes) > 0 {
			l["fault.update_p50_ms"] = quantile(durationsUS(writes), 0.5) / 1e3
		}
		if err := replayLayers(l, host, spec, seed, sets, lanes, replayed); err != nil {
			return nil, err
		}
		// Warm-up batches allocate too, so normalise by every decision
		// the callers issued.
		setMemLayers(l, mem1.gc-mem0.gc, mem1.alloc-mem0.alloc, float64(issued))
		path, err := rec.write(cfg.spansDir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		out.info = append(out.info, rec.summary(path))
	}
	return out, nil
}

// timeSetups starts the fleet n times, each time closing the previous
// one and collecting its garbage, and appends the start-up times to
// setups. The last fleet stays up and is returned.
func timeSetups(setups []time.Duration, n, side, lanes int, wrap func(http.Handler) http.Handler) ([]time.Duration, *fleetHost, error) {
	var host *fleetHost
	for i := 0; i < n; i++ {
		t0 := time.Now()
		h, err := startFleet(side, lanes, wrap)
		if err != nil {
			if host != nil {
				host.close()
			}
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0))
		if host != nil {
			host.close()
			runtime.GC()
		}
		host = h
	}
	return setups, host, nil
}

func cacheTotals(h *fleetHost) fleet.CacheMetrics {
	var t fleet.CacheMetrics
	for _, r := range h.replicas {
		if c := r.srv.Metrics().Cache; c != nil {
			t.Hits += c.Hits
			t.Misses += c.Misses
			t.Invalidations += c.Invalidations
		}
	}
	return t
}

func setClientLayers(l map[string]float64, cl *clientLayers) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	us := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / 1e3
	}
	l["client.encode_us"] = us(cl.encode, cl.subs)
	l["client.conn_wait_us"] = us(cl.connWait, cl.subs)
	l["client.dials"] = float64(cl.dials.Load())
	if cl.gotConn > 0 {
		l["client.conn_reuse_ratio"] = float64(cl.reused) / float64(cl.gotConn)
	}
	l["transport.server_wait_us"] = us(cl.serverWait, cl.serverWaitN)
	l["server.handler_us"] = us(time.Duration(cl.handlerNs.Load()), cl.handlerN.Load())
	l["client.decode_us"] = us(cl.decode, cl.batches)
}

// checkFleet compares the answers of every single-state batch with a
// single-node reconfig.Service (no cache, one lane) under that state. A
// batch that differs counts all its decisions as mismatched.
func checkFleet(h *fleetHost, spec fleetSpec, seed uint64, sets []*fault.Set, logs []*callerLog) (mism, checked int64, err error) {
	ref, err := reconfig.NewService(h.art, h.g, 1)
	if err != nil {
		return 0, 0, err
	}
	// The batches are found by scanning the logs once per state, not
	// gathered into lists whose size would follow the run's throughput.
	seen := map[int32]bool{}
	var states []int32
	for _, l := range logs {
		for _, st := range l.states {
			if st >= 0 && !seen[st] {
				seen[st] = true
				states = append(states, st)
			}
		}
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	nodes := h.g.Nodes()
	var req reconfig.DecisionRequest
	buf := make([]routing.Candidate, 0, 8)
	answers := fnv.New32a()
	for _, st := range states {
		ref.UpdateFaults(stateSet(sets, int(st)))
		memo := map[reconfig.DecisionRequest][]routing.Candidate{}
		for c, l := range logs {
			for b, bst := range l.states {
				if bst != st {
					continue
				}
				answers.Reset()
				for i := 0; i < fleetBatch; i++ {
					spec.request(seed, c, b*fleetBatch+i, nodes, &req)
					want, ok := memo[req]
					if !ok {
						cands, _, err := ref.Decide(&req, buf[:0])
						if err != nil {
							return 0, 0, fmt.Errorf("reference decide: %w", err)
						}
						want = cands
						if !spec.midRoute {
							memo[req] = append([]routing.Candidate(nil), cands...)
						}
					}
					hashAnswer(answers, want)
				}
				checked += fleetBatch
				if l.hashes[b] != answers.Sum32() {
					mism += fleetBatch
				}
			}
		}
	}
	return mism, checked, nil
}

// probeFleet sends a fixed stream through the fleet under a fixed fault
// state, checks it against the reference and digests the answers.
func probeFleet(h *fleetHost, spec fleetSpec, seed uint64, final *fault.Set) (string, int64, error) {
	ref, err := reconfig.NewService(h.art, h.g, 1)
	if err != nil {
		return "", 0, err
	}
	ref.UpdateFaults(final)
	d := newDigester()
	reqs := make([]reconfig.DecisionRequest, fleetBatch)
	var mism int64
	for b := 0; b < fleetProbes; b++ {
		for i := range reqs {
			spec.request(seed, probeCaller, b*fleetBatch+i, h.g.Nodes(), &reqs[i])
		}
		out, err := h.client.DecideBatch(context.Background(), reqs)
		if err != nil {
			return "", 0, err
		}
		for i := range out {
			cands, _, err := ref.Decide(&reqs[i], nil)
			if err != nil {
				return "", 0, err
			}
			got := answerHash(out[i].Candidates)
			if out[i].Error != "" || got != answerHash(cands) {
				mism++
			}
			d.add("%x", got)
		}
	}
	return d.String(), mism, nil
}

// replayLayers replays the first batches of caller 0's request stream
// (as many as it issued, up to fleetReplayMax decisions) through a fresh
// Registry (with the workload's cache) and a fresh Service in isolation,
// and times Registry.UpdateFaults over the fault list.
func replayLayers(l map[string]float64, h *fleetHost, spec fleetSpec, seed uint64, sets []*fault.Set, lanes, batches int) error {
	n := batches * fleetBatch
	if n > fleetReplayMax {
		n = fleetReplayMax
	}
	if n == 0 {
		return errors.New("no decisions to replay")
	}
	reqs := make([]reconfig.DecisionRequest, n)
	for i := range reqs {
		spec.request(seed, 0, i, h.g.Nodes(), &reqs[i])
	}
	reg, err := fleet.NewRegistry(h.art, h.g, fleet.RegistryOptions{Shards: lanes, CacheEntries: fleetCache})
	if err != nil {
		return err
	}
	svc, err := reconfig.NewService(h.art, h.g, lanes)
	if err != nil {
		return err
	}
	buf := make([]routing.Candidate, 0, 8)
	invEvery := 0
	if spec.writeEvery > 0 {
		// Invalidate as often as the workload's writes did, measured in
		// this caller's decisions.
		invEvery = spec.writeEvery * fleetBatch
	}
	t0 := time.Now()
	for i := range reqs {
		if invEvery > 0 && i > 0 && i%invEvery == 0 {
			reg.Cache().Invalidate()
		}
		if _, _, err := reg.Decide(&reqs[i], buf[:0]); err != nil {
			return err
		}
	}
	l["registry.decide_ns"] = float64(time.Since(t0)) / float64(n)
	t0 = time.Now()
	for i := range reqs {
		if _, _, err := svc.Decide(&reqs[i], buf[:0]); err != nil {
			return err
		}
	}
	l["service.decide_ns"] = float64(time.Since(t0)) / float64(n)
	if spec.writeEvery > 0 {
		var ms []float64
		for _, f := range sets {
			t := time.Now()
			reg.UpdateFaults(f)
			ms = append(ms, float64(time.Since(t))/1e6)
		}
		l["registry.update_faults_ms"] = median(ms)
	}
	return nil
}
