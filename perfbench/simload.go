package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// sim-mesh64 is the ci.sh / ROADMAP "mesh64x64 moderate" regime:
// native NAFTA, 8 random node faults that keep the mesh connected,
// uniform traffic at 0.02 flits/node/cycle, 8-flit messages. Flit
// movement in internal/network does ~93% of the work, so this workload
// shows network-layer changes and barely sees routing changes.
const (
	simSide        = 64
	simFaults      = 8
	simRate        = 0.02
	simLength      = 8
	simWarmup      = 500
	simMeasure     = 600
	simMinRepeats  = 3
	simDecisionTag = "routing"
	// simBlock measured cycles make one latency sample.
	simBlock = 20
)

// cycleClock is the sim's traffic pattern with a clock attached: the
// generator asks it for a destination on every injection, and at ~10
// injections per cycle on this mesh the first call of each cycle marks
// the cycle boundary. A sample is the mean wall time per cycle over a
// block of simBlock measured cycles. Warm-up cycles of a filling network
// are faster, so they are left out. Single cycles are not sampled:
// their times form two peaks (~1.1-1.8 ms and ~1.9-2.0 ms), the share
// of the fast one changes from run to run, and a per-cycle median jumps
// between them. It returns exactly what the wrapped pattern returns,
// from the same PRNG.
type cycleClock struct {
	traffic.Pattern
	net        *network.Network
	last       int64 // cycle of the last Dest call
	blockCycle int64 // first cycle of the current block, -1 before the first
	blockT     time.Time
	samples    []time.Duration
}

func (c *cycleClock) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	if now := c.net.Now(); now != c.last {
		c.last = now
		if now > simWarmup && now <= simWarmup+simMeasure {
			t := time.Now()
			if c.blockCycle < 0 {
				c.blockCycle, c.blockT = now, t
			} else if n := now - c.blockCycle; n >= simBlock {
				c.samples = append(c.samples, t.Sub(c.blockT)/time.Duration(n))
				c.blockCycle, c.blockT = now, t
			}
		}
	}
	return c.Pattern.Dest(src, rng)
}

// simRun is one sim.Run call of the workload and what it measured.
type simRun struct {
	// setup runs from the call's start (topology, fault set, algorithm)
	// to sim.Run's OnNetwork hook, which fires once network.New and the
	// initial diagnosis are done.
	setup    time.Duration
	stepping time.Duration
	cycles   int64
	digest   string
	peaks    network.ActiveSetPeaks
	problems []string
}

// runSimOnce builds the mesh, the fault set and the algorithm, runs the
// simulation and checks it. With a non-nil set, the algorithm is
// wrapped in the timing decorator, its spans under span.
func runSimOnce(inputSeed int64, set *algSet, span uint64, clock *cycleClock) (simRun, error) {
	var r simRun
	t0 := time.Now()
	g := topology.NewMesh(simSide, simSide)
	f, err := fault.Random(g, fault.RandomOptions{Nodes: simFaults, Seed: inputSeed, KeepConnected: true})
	if err != nil {
		return r, err
	}
	var alg routing.Algorithm = routing.NewNAFTA(g)
	if set != nil {
		alg = newTimedAlg(alg, simDecisionTag, set, span, span)
	}
	clock.Pattern = traffic.Uniform{Nodes: g.Nodes()}
	clock.last, clock.blockCycle = -1, -1
	var (
		net  *network.Network
		tNet time.Time
	)
	res, err := sim.Run(sim.Config{
		Graph:         g,
		Algorithm:     alg,
		Pattern:       clock,
		Rate:          simRate,
		Length:        simLength,
		Seed:          int64(splitmix(uint64(inputSeed))),
		Faults:        f,
		WarmupCycles:  simWarmup,
		MeasureCycles: simMeasure,
		OnNetwork: func(n *network.Network) {
			net, clock.net, tNet = n, n, time.Now()
		},
	})
	tEnd := time.Now()
	if err != nil {
		return r, err
	}
	r.setup, r.stepping, r.cycles = tNet.Sub(t0), tEnd.Sub(tNet), net.Now()
	r.peaks = net.Peaks()
	final := net.Stats()
	d := newDigester()
	d.add("faults=%v", f)
	d.add("window=%+v", res.Stats)
	d.add("final=%+v", final)
	d.add("offered=%d growth=%d drained=%v cycles=%d", res.OfferedMessages, res.QueueGrowth, res.Drained, r.cycles)
	r.digest = d.String()
	if !res.Drained {
		r.problems = append(r.problems, "network did not drain")
	}
	if res.Stats.DeadlockSuspected || res.PostMortem != nil {
		r.problems = append(r.problems, "deadlock or livelock post-mortem")
	}
	if err := net.CheckInvariants(); err != nil {
		r.problems = append(r.problems, fmt.Sprintf("invariants: %v", err))
	}
	if got := final.Delivered + final.Dropped + final.Killed; got != final.Injected {
		r.problems = append(r.problems, fmt.Sprintf("conservation: injected %d, terminal %d", final.Injected, got))
	}
	return r, nil
}

func runSim(cfg *config) (*outcome, error) {
	out := &outcome{}
	var set *algSet
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		set = &algSet{rec: rec}
		out.layers = map[string]float64{}
	}
	var (
		setups   []time.Duration
		rates    []float64
		stepping time.Duration
		cycles   int64
		peaks    network.ActiveSetPeaks
		samples  []time.Duration
		repeats  int64
		gcs      uint32
		alloc    uint64
	)
	start := time.Now()
	for repeats < simMinRepeats || time.Since(start) < cfg.window {
		// One call per CPU at a time: each runs the serial engine, and
		// together they average out per-CPU speed differences of a
		// shared host.
		par := runtime.GOMAXPROCS(0)
		runs := make([]simRun, par)
		errs := make([]error, par)
		clocks := make([]cycleClock, par)
		m0 := readMem()
		var wg sync.WaitGroup
		for i := 0; i < par; i++ {
			id := rec.newID()
			wg.Add(1)
			go func(i int, id uint64) {
				defer wg.Done()
				t0 := time.Now()
				runs[i], errs[i] = runSimOnce(cfg.inputSeed, set, id, &clocks[i])
				rec.add("sim.run", id, 0, id, 0, t0, time.Now())
			}(i, id)
		}
		wg.Wait()
		m1 := readMem()
		gcs += m1.gc - m0.gc
		alloc += m1.alloc - m0.alloc
		// Collect the calls' networks before the next ones are built, so
		// the peak RSS does not depend on when the collector runs.
		runtime.GC()
		for i, r := range runs {
			if errs[i] != nil {
				return nil, errs[i]
			}
			samples = append(samples, clocks[i].samples...)
			setups = append(setups, r.setup)
			repeats++
			stepping += r.stepping
			rates = append(rates, float64(r.cycles)/r.stepping.Seconds())
			cycles += r.cycles
			peaks = maxPeaks(peaks, r.peaks)
			for _, p := range r.problems {
				out.checks = append(out.checks, fmt.Sprintf("repeat %d: %s", repeats, p))
			}
			if out.digest == "" {
				out.digest = r.digest
			} else if r.digest != out.digest {
				out.checks = append(out.checks, fmt.Sprintf("repeat %d: stats digest %s differs from %s", repeats, r.digest, out.digest))
			}
			if len(r.problems) > 0 || r.digest != out.digest {
				out.failed++
			}
		}
	}
	out.attempted = repeats
	if err := setE2E(out, setups, median(rates), durationsUS(samples)); err != nil {
		return nil, err
	}
	out.info = append(out.info, fmt.Sprintf("sim-mesh64: %d sim.Run calls, %d cycles stepped in %.3fs, %d latency samples of %d cycles, cycles/s per call %.0f",
		repeats, cycles, stepping.Seconds(), len(samples), simBlock, rates))
	if cfg.trace {
		l := out.layers
		decideNs, _ := setAlgLayers(l, set.totals())
		// Counts are per sim.Run call, so they repeat exactly.
		l["routing.decisions"] /= float64(repeats)
		l["fault.diagnosis_calls"] /= float64(repeats)
		l["network.step_self_us"] = (float64(stepping) - float64(decideNs)) / float64(cycles) / 1e3
		setPeakLayers(l, peaks)
		setMemLayers(l, gcs, alloc, float64(cycles))
		path, err := rec.write(cfg.spansDir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		out.info = append(out.info, rec.summary(path))
	}
	return out, nil
}

func maxPeaks(a, b network.ActiveSetPeaks) network.ActiveSetPeaks {
	return network.ActiveSetPeaks{
		Route:       max(a.Route, b.Route),
		Alloc:       max(a.Alloc, b.Alloc),
		Switch:      max(a.Switch, b.Switch),
		Drain:       max(a.Drain, b.Drain),
		InjectNodes: max(a.InjectNodes, b.InjectNodes),
	}
}

func setPeakLayers(l map[string]float64, p network.ActiveSetPeaks) {
	l["network.active_peak_route"] = float64(p.Route)
	l["network.active_peak_alloc"] = float64(p.Alloc)
	l["network.active_peak_switch"] = float64(p.Switch)
	l["network.active_peak_drain"] = float64(p.Drain)
}
