package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/network"
	"repro/internal/routing"
)

// campaign-mixed runs rounds of campaign.Run with the CLI defaults
// (differential on, shrinking on, Workers = GOMAXPROCS). A round is
// one call per family with a fixed scenario count; its seeds derive
// from the input seed and the round number. Small topologies, timed
// faults, hot swaps and the interpreted oracle make the rules, core,
// rulesets, fault and campaign layers visible here.
var campaignFamilies = []struct {
	algo      string
	scenarios int
}{
	{campaign.AlgoNAFTA, 8},
	{campaign.AlgoRouteC, 8},
	{campaign.AlgoMaze, 2},
}

const (
	campaignMinRounds = 3
	// campaignGenerates is how often a round's scenario generation is
	// repeated for the set-up time (it is deterministic and ~1 ms).
	campaignGenerates = 5
)

// campaignNets keeps the network of every simulation of one
// campaign.Run call, keyed by scenario and variant, for the stats
// digest and the active-set peaks.
type campaignNets struct {
	mu   sync.Mutex
	nets map[string]*network.Network
}

func (c *campaignNets) put(key string, n *network.Network) {
	c.mu.Lock()
	c.nets[key] = n
	c.mu.Unlock()
}

// factory wraps campaign.DefaultFactory: it records each run's network
// and, when traced, times the engine construction and wraps the engine
// in the timing decorator (the fast path as the rulesets layer, the
// interpreted oracle as the rules layer).
func (c *campaignNets) factory(set *algSet) campaign.AlgFactory {
	return func(s *campaign.Scenario, oracle bool) (routing.Algorithm, func(*network.Network), error) {
		start := time.Now()
		alg, attach, err := campaign.DefaultFactory(s, oracle)
		if err != nil {
			return nil, nil, err
		}
		if set != nil {
			set.noteBuild(start, time.Now())
			layer := "rulesets"
			if oracle {
				layer = "rules"
			}
			parent, trace := set.parent()
			alg = newTimedAlg(alg, layer, set, parent, trace)
		}
		key := fmt.Sprintf("%s/%03d/oracle=%v", s.Algo, s.ID, oracle)
		return alg, func(n *network.Network) {
			if attach != nil {
				attach(n)
			}
			c.put(key, n)
		}, nil
	}
}

func runCampaign(cfg *config) (*outcome, error) {
	out := &outcome{}
	var set *algSet
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		set = &algSet{rec: rec}
		out.layers = map[string]float64{}
	}
	var (
		setups, latencies []time.Duration
		rates             []float64
		elapsed, cpu      time.Duration
		peaks             network.ActiveSetPeaks
		rounds            int
	)
	d := newDigester()
	mem0 := readMem()
	start := time.Now()
	for ; rounds < campaignMinRounds || time.Since(start) < cfg.window; rounds++ {
		roundID := rec.newID()
		opts := make([]campaign.Options, len(campaignFamilies))
		nets := make([]*campaignNets, len(campaignFamilies))
		for i, fam := range campaignFamilies {
			nets[i] = &campaignNets{nets: map[string]*network.Network{}}
			opts[i] = campaign.Options{
				Algo:         fam.algo,
				Scenarios:    fam.scenarios,
				Seed:         int64(splitmix(uint64(cfg.inputSeed) + uint64(rounds*len(campaignFamilies)+i))),
				Differential: true,
				Shrink:       true,
				Factory:      nets[i].factory(set),
			}
		}
		t0 := time.Now()
		for k := 0; k < campaignGenerates; k++ {
			g0 := time.Now()
			for i := range opts {
				if _, err := campaign.Generate(&opts[i]); err != nil {
					return nil, err
				}
			}
			g1 := time.Now()
			setups = append(setups, g1.Sub(g0))
			rec.add("campaign.generate", rec.newID(), roundID, roundID, 0, g0, g1)
		}
		t1 := time.Now()
		cpu0 := cpuTime()
		roundScenarios := 0
		for i := range opts {
			callID := rec.newID()
			set.setParent(callID, roundID)
			c0 := time.Now()
			res, err := campaign.Run(opts[i])
			if err != nil {
				return nil, err
			}
			rec.add("campaign.run."+opts[i].Algo, callID, roundID, roundID, 0, c0, time.Now())
			out.attempted += int64(res.Scenarios)
			roundScenarios += res.Scenarios
			for _, r := range res.Reports {
				out.failed++
				out.checks = append(out.checks, fmt.Sprintf("round %d %s scenario %d: %v", rounds, opts[i].Algo, r.Scenario.ID, r.Violations[0]))
			}
			keys := make([]string, 0, len(nets[i].nets))
			for k := range nets[i].nets {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				n := nets[i].nets[k]
				// The digest covers the rounds every run completes, so
				// a slower (traced) run digests the same simulations.
				if rounds < campaignMinRounds {
					d.add("%d/%s %+v cycles=%d", rounds, k, n.Stats(), n.Now())
				}
				peaks = maxPeaks(peaks, n.Peaks())
			}
			if want := 2 * res.Scenarios; len(keys) != want {
				out.checks = append(out.checks, fmt.Sprintf("round %d %s: %d simulations recorded, want %d", rounds, opts[i].Algo, len(keys), want))
			}
		}
		t2 := time.Now()
		cpu += cpuTime() - cpu0
		rec.add("campaign.round", roundID, 0, roundID, 0, t0, t2)
		latencies = append(latencies, t2.Sub(t1))
		rates = append(rates, float64(roundScenarios)/t2.Sub(t1).Seconds())
		elapsed += t2.Sub(t1)
	}
	mem1 := readMem()
	out.digest = d.String()
	if err := setE2E(out, setups, median(rates), durationsUS(latencies)); err != nil {
		return nil, err
	}
	out.info = append(out.info, fmt.Sprintf("campaign-mixed: %d rounds, %d scenarios, %d violating, %.3fs in campaign.Run",
		rounds, out.attempted, out.failed, elapsed.Seconds()))
	if cfg.trace {
		l := out.layers
		decideNs, diagNs := setAlgLayers(l, set.totals())
		for _, k := range []string{"rulesets.fast_decisions", "rules.interp_decisions", "fault.diagnosis_calls"} {
			l[k] /= float64(out.attempted) // per scenario
		}
		secs := make([]float64, len(setups))
		for i, s := range setups {
			secs[i] = s.Seconds() * 1e3
		}
		l["campaign.generate_ms"] = median(secs)
		set.mu.Lock()
		if set.builds > 0 {
			l["rulesets.build_ms"] = float64(set.buildNs) / float64(set.builds) / 1e6
		}
		l["rulesets.builds"] = float64(set.builds) / float64(out.attempted)
		buildNs := set.buildNs
		set.mu.Unlock()
		l["campaign.other_cpu_s"] = (cpu - time.Duration(decideNs+diagNs+buildNs)).Seconds() / float64(out.attempted)
		setPeakLayers(l, peaks)
		setMemLayers(l, mem1.gc-mem0.gc, mem1.alloc-mem0.alloc, float64(out.attempted))
		path, err := rec.write(cfg.spansDir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		out.info = append(out.info, rec.summary(path))
	}
	return out, nil
}
