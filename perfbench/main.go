// Command perfbench is the repository benchmark. It runs one workload
// for a fixed wall-clock window, checks the program's outputs, and
// prints as its last line one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1):
//
//	bash perfbench/run.sh --workload fleet-hot --seed 3 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists and what it predicts):
//
//	sim-mesh64      sim.Run, native NAFTA, 64x64 mesh, 8 node faults
//	campaign-mixed  campaign.Run rounds of NAFTA, ROUTE_C and maze scenarios
//	fleet-hot       2 loopback replicas, 8x8, injection decisions (cache hits)
//	fleet-wide      2 loopback replicas, 64x64, mid-route decisions plus /fault writes
//
// The traced run measures the layers from outside the program: a
// routing.Algorithm decorator, an http.Handler middleware around the
// replica mux, net/http/httptrace hooks on the client context, and
// isolated replays through the registry and the decision service.
// Spans are kept in memory and written to --spans at the end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	heldout  bool
	spansDir string
	// inputSeed is the seed every generator of the workload derives
	// from; held-out runs draw it from a disjoint stream.
	inputSeed int64
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted int64
	failed    int64
	// checks lists failed correctness checks (empty when correct).
	checks []string
	// e2e holds the end-to-end metric values by name.
	e2e map[string]float64
	// layers holds the per-layer metric values by name (traced runs).
	layers map[string]float64
	// digest summarises the simulated or served outputs; traced and
	// untraced runs of one seed must print the same digest.
	digest string
	// info lines are printed before the result (not gated).
	info []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced runs, reported by every
// workload. An op is a simulated cycle (sim-mesh64), a scenario
// (campaign-mixed) or a routing decision (fleet workloads); latency is
// the wait for one unit of work: a simulated cycle (averaged over
// blocks of 20), a round of three campaign.Run calls, or one
// /decide/batch round trip. The 99th and 99.9th percentiles are
// printed on the summary line but not gated: on a shared 2-CPU host
// they moved by up to 2x between seeds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MiB"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
}

// perLayer are the metrics of traced runs. A layer the workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"network.step_self_us", "us"},
	{"network.active_peak_route", "count"},
	{"network.active_peak_alloc", "count"},
	{"network.active_peak_switch", "count"},
	{"network.active_peak_drain", "count"},
	{"routing.decide_ns", "ns"},
	{"routing.decisions", "count"},
	{"rulesets.build_ms", "ms"},
	{"rulesets.builds", "count"},
	{"rulesets.fast_decide_ns", "ns"},
	{"rulesets.fast_decisions", "count"},
	{"rules.interp_decide_ns", "ns"},
	{"rules.interp_decisions", "count"},
	{"fault.diagnosis_us", "us"},
	{"fault.diagnosis_calls", "count"},
	{"fault.update_p50_ms", "ms"},
	{"campaign.generate_ms", "ms"},
	{"campaign.other_cpu_s", "s"},
	{"client.encode_us", "us"},
	{"client.conn_wait_us", "us"},
	{"client.dials", "count"},
	{"client.conn_reuse_ratio", "ratio"},
	{"transport.server_wait_us", "us"},
	{"server.handler_us", "us"},
	{"client.decode_us", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.invalidations", "count"},
	{"registry.decide_ns", "ns"},
	{"service.decide_ns", "ns"},
	{"registry.update_faults_ms", "ms"},
	{"runtime.gc_per_mop", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"trace.ops_per_s", "1/s"},
	{"trace.latency_p50_us", "us"},
	{"trace.latency_p90_us", "us"},
	{"host.cpu_loop_ms", "ms"},
}

var workloads = map[string]func(*config) (*outcome, error){
	"sim-mesh64":     runSim,
	"campaign-mixed": runCampaign,
	"fleet-hot":      runFleetHot,
	"fleet-wide":     runFleetWide,
}

// Held-out inputs come from a stream no development run used: the
// salt moves every generator seed into a disjoint sequence.
const (
	devSalt     = 0x243F6A8885A308D3
	heldoutSalt = 0x13198A2E03707344
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	workload := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	heldout := fs.Bool("heldout", false, "derive inputs from the held-out seed stream")
	spans := fs.String("spans", filepath.Join(".bench_build", "perfbench", "spans"), "directory for span files of traced runs")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		heldout:  *heldout,
		spansDir: *spans,
	}
	salt := uint64(devSalt)
	if cfg.heldout {
		salt = heldoutSalt
	}
	cfg.inputSeed = int64(splitmix(uint64(cfg.seed) ^ salt))

	loop := hostLoopMs()
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	hostMs := median(append(loop, hostLoopMs()...))
	if out.layers != nil {
		out.layers["host.cpu_loop_ms"] = hostMs
	}
	if !cfg.trace {
		for _, d := range endToEnd {
			if !(out.e2e[d.name] > 0) {
				out.checks = append(out.checks, fmt.Sprintf("end-to-end metric %s was not measured", d.name))
			}
		}
	}
	// cpu_loop_ms is the host-speed reference of this run, so a later
	// comparison can tell host drift from a code change.
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s heldout=%v cpu_loop_ms=%.4f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.heldout, hostMs)
	for _, l := range out.info {
		fmt.Println(l)
	}
	fmt.Printf("digest %s seed=%d trace=%v %s\n", cfg.workload, cfg.seed, cfg.trace, out.digest)
	for _, c := range out.checks {
		fmt.Println("check failed:", c)
	}
	res := result{
		Correct:   len(out.checks) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layers
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
