package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// splitmix is the SplitMix64 finaliser: a counter-based generator, so
// request i of caller c can be regenerated for the correctness check
// without storing it.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hostLoopIters sets the size of the host-speed reference loop: a fixed
// chain of splitmix rounds, a few milliseconds of pure integer work.
const (
	hostLoopIters = 1 << 21
	hostLoopReps  = 7
)

// hostLoopSink keeps the reference loop's result alive.
var hostLoopSink uint64

// hostLoopMs times the reference loop hostLoopReps times and returns
// the median in milliseconds. The program's code never runs in it, so
// two runs whose figures differ while this stays put differ in the
// program, and two runs where it moves as much differ in the host.
func hostLoopMs() []float64 {
	ms := make([]float64, hostLoopReps)
	for r := range ms {
		t0 := time.Now()
		x := uint64(r)
		for i := 0; i < hostLoopIters; i++ {
			x = splitmix(x)
		}
		ms[r] = float64(time.Since(t0)) / 1e6
		hostLoopSink += x
	}
	return ms
}

// quantile returns the q-quantile of sorted by linear interpolation
// (the convention of Python's statistics.quantiles, method inclusive).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// durationsUS converts and sorts durations in microseconds.
func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// rssPeakMiB reads the process's peak resident set size (VmHWM).
func rssPeakMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is the part of runtime.MemStats the per-layer metrics use.
type memSnap struct {
	gc    uint32
	alloc uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{gc: ms.NumGC, alloc: ms.TotalAlloc}
}

// setMemLayers fills the runtime.* layer metrics from the GC cycles
// and bytes allocated while ops operations ran.
func setMemLayers(layers map[string]float64, gc uint32, alloc uint64, ops float64) {
	if ops > 0 {
		layers["runtime.gc_per_mop"] = float64(gc) / ops * 1e6
		layers["runtime.alloc_bytes_per_op"] = float64(alloc) / ops
	}
}

// setE2E fills the end-to-end metrics shared by every workload.
func setE2E(out *outcome, setups []time.Duration, opsPerSec float64, latUS []float64) error {
	rss, err := rssPeakMiB()
	if err != nil {
		return err
	}
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	out.e2e = map[string]float64{
		"setup_s":        median(secs),
		"rss_peak_mb":    rss,
		"ops_per_s":      opsPerSec,
		"latency_p50_us": quantile(latUS, 0.50),
		"latency_p90_us": quantile(latUS, 0.90),
	}
	if out.layers != nil {
		out.layers["trace.ops_per_s"] = out.e2e["ops_per_s"]
		out.layers["trace.latency_p50_us"] = out.e2e["latency_p50_us"]
		out.layers["trace.latency_p90_us"] = out.e2e["latency_p90_us"]
	}
	out.info = append(out.info, fmt.Sprintf("latency samples %d: p50 %.1fus p90 %.1fus p99 %.1fus p99.9 %.1fus (p99 and p99.9 not gated)",
		len(latUS), quantile(latUS, 0.5), quantile(latUS, 0.9), quantile(latUS, 0.99), quantile(latUS, 0.999)))
	return nil
}

// digester accumulates an order-sensitive FNV-64a digest.
type digester struct{ h uint64 }

func newDigester() *digester {
	h := fnv.New64a()
	return &digester{h: h.Sum64()}
}

func (d *digester) add(format string, args ...any) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|", d.h)
	fmt.Fprintf(h, format, args...)
	d.h = h.Sum64()
}

func (d *digester) String() string { return fmt.Sprintf("%016x", d.h) }
