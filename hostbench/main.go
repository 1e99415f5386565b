// Command hostbench measures how fast and how cheaply the simulator
// produces the paper's results on the host: it runs the real app entry
// points (hpcc.RandomAccess, hpcc.FFT, cgpop.Run) inside caf.RunWorld, one
// process per app run, checks each run's output, and reports end-to-end
// host metrics. A traced run (-trace 1) instead reports per-layer metrics:
// a CPU profile split by module, the obs counters and trace decomposition,
// Go runtime figures, and probes that time each layer's public functions.
//
// Usage (from the repository root):
//
//	bash hostbench/run.sh --workload ra_mpi_np1024 --seed 1 --seconds 20 --trace 0
//	bash hostbench/run.sh --workload all --seconds 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a table of the same metrics goes
// to standard error.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"cafmpi/internal/trace"
)

// metricDef names one reported metric. Every metric gets worse as it
// grows except those marked "higher".
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayerMetrics lists the traced run's metrics in report order.
func perLayerMetrics() []metricDef {
	var m []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, metricDef{n, unit, "lower"})
		}
	}
	for _, mod := range modules {
		add("fraction", mod+".cpu_share")
	}
	add("count", "fabric.msgs")
	add("bytes", "fabric.bytes")
	add("count", "fabric.rndv_msgs", "fabric.unexpected_depth_max", "fabric.unreceived_msgs")
	add("ns", "fabric.exact_take_np8.p50_ns", "fabric.exact_take_np8.p99_ns",
		"fabric.wildcard_take_np8.p50_ns", "fabric.wildcard_take_np8.p99_ns",
		"fabric.wildcard_take_np1024.p50_ns", "fabric.wildcard_take_np1024.p99_ns")
	add("count", "mpi.rdma_puts", "mpi.flushall_calls", "mpi.flushall_scanned_ops")
	add("ops/call", "mpi.flushall_scan_per_call")
	add("ns", "mpi.put_flush.p50_ns", "mpi.flushall_np1024.p50_ns", "mpi.flushall_np1024_sparse.p50_ns",
		"mpi.allreduce_np64.p50_ns")
	add("count", "gasnet.ams_sent", "gasnet.srq_stalls", "gasnet.nbi_syncs")
	add("ns", "gasnet.am_roundtrip.p50_ns", "caf.put.p50_ns", "caf.get.p50_ns",
		"caf.event_pingpong.p50_ns", "caf.barrier_np256.p50_ns")
	add("bytes", "obs.bytes_per_image")
	add("count", "obs.events_dropped")
	for _, c := range trace.Categories() {
		add("virtual_s", "trace."+c.String()+"_s")
	}
	add("ms", "runtime.sched_p99_ms")
	add("s", "runtime.gc_cpu_s")
	add("count", "runtime.mallocs", "runtime.goroutines_max")
	add("virtual_s", "sim.virtual_s")
	add("ratio", "sim.virtual_s_spread", "traced.overhead_ratio")
	return m
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	shards    int                    // delivery shards the app runs used
	stolen    float64                // median stolen seconds per app run
}

// probeResult is a probe child's output.
type probeResult struct {
	Err    string             `json:"err,omitempty"`
	Values map[string]float64 `json:"values"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run, or \"all\"")
		seed     = flag.Int64("seed", 1, "seed for the layer probes' choices of peer, tag and offset")
		seconds  = flag.Float64("seconds", 20, "how long to keep starting measured app runs")
		traceArg = flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
		outDir   = flag.String("out", ".hostbench", "directory the traced run writes its spans under")
		child    = flag.String("child", "", "run one measured child: \"app\" (one app run) or \"probes\"; prints its JSON result")
		traced   = flag.Bool("traced", false, "child: trace this app run")
		runID    = flag.Int("run", 0, "child: run id stamped on its spans")
		spansOut = flag.String("spans", "", "child: write spans to this file at exit")
	)
	flag.Parse()
	if *child != "" {
		if err := childMain(*child, *name, *seed, *traced, *runID, *spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traceArg != 0 && *traceArg != 1 {
		fail("-trace must be 0 or 1")
	}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloadList(false) {
			names = append(names, w.name)
		}
	}
	budget := time.Duration(*seconds * float64(time.Second))
	for _, n := range names {
		if _, ok := findWorkload(n, false); !ok {
			fail("unknown workload %q", n)
		}
		res, err := benchmark(n, *seed, budget, *traceArg == 1, *outDir)
		if err != nil {
			fail("%v", err)
		}
		printTable(n, res)
		js, err := json.Marshal(res)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(js))
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hostbench: "+format+"\n", args...)
	os.Exit(2)
}

// childMain runs one measured child and prints its result as JSON.
func childMain(kind, name string, seed int64, traced bool, run int, spansOut string) error {
	var sp *spans
	if spansOut != "" {
		sp = newSpans(run)
	}
	var out any
	switch kind {
	case "app":
		w, ok := findWorkload(name, false)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		out = runIteration(w, traced, sp, iterationDeadline)
	case "probes":
		vals, err := runProbes(seed, false, sp)
		pr := probeResult{Values: vals}
		if err != nil {
			pr.Err = err.Error()
		}
		out = pr
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	return sp.write(spansOut)
}

// runChild starts this binary as a child, waits for it under a deadline,
// and decodes the last line it printed into v. A child that hangs is killed
// at the deadline and reported as an error.
func runChild(v any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), iterationDeadline+10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("child %v: deadline passed: %w", args, ctx.Err())
		}
		return fmt.Errorf("child %v: %w", args, err)
	}
	out := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("child %v: bad result: %w", args, err)
	}
	return nil
}

// benchmark keeps starting app runs of one workload, each in its own
// process, until the budget is spent, and aggregates them. Untraced, it
// reports the end-to-end metrics. Traced, it first runs the layer probes,
// then alternates untraced and traced app runs and reports the per-layer
// metrics.
func benchmark(name string, seed int64, budget time.Duration, traced bool, outDir string) (result, error) {
	start := time.Now()
	res := result{Metrics: map[string]metricValue{}}
	var root *spans
	spanDir := ""
	if traced {
		spanDir = filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d", name, seed))
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			return res, err
		}
		root = newSpans(0)
	}
	note := func(err error) {
		res.Failed++
		fmt.Fprintln(os.Stderr, "hostbench: failed run:", err)
	}

	var probes map[string]float64
	if traced {
		res.Attempted++
		var pr probeResult
		t0 := time.Now()
		err := runChild(&pr, "-child", "probes", "-seed", strconv.FormatInt(seed, 10), "-run", "1",
			"-spans", filepath.Join(spanDir, "run1.jsonl"))
		root.add("probes", 0, t0, time.Now())
		switch {
		case err != nil:
			note(err)
		case pr.Err != "":
			note(errors.New(pr.Err))
		default:
			probes = pr.Values
		}
	}

	var plain, withTrace []iterResult
	minRuns := 3
	if traced {
		minRuns = 2
	}
	for i := 0; i < minRuns || time.Since(start) < budget; i++ {
		tr := traced && i%2 == 1
		run := res.Attempted + 1
		args := []string{"-child", "app", "-workload", name, "-run", strconv.Itoa(run)}
		if tr {
			args = append(args, "-traced", "-spans", filepath.Join(spanDir, fmt.Sprintf("run%d.jsonl", run)))
		}
		res.Attempted++
		var it iterResult
		t0 := time.Now()
		err := runChild(&it, args...)
		if tr {
			root.add("app run traced", 0, t0, time.Now())
		} else {
			root.add("app run", 0, t0, time.Now())
		}
		switch {
		case err != nil:
			note(err)
		case it.Err != "":
			note(errors.New(it.Err))
		case tr:
			res.shards = it.Shards
			withTrace = append(withTrace, it)
		default:
			res.shards = it.Shards
			plain = append(plain, it)
		}
	}
	res.Correct = res.Failed == 0
	var stolen []float64
	for _, r := range append(plain, withTrace...) {
		stolen = append(stolen, r.StolenS)
	}
	res.stolen = median(stolen)
	if traced {
		vals := layerValues(plain, withTrace, probes)
		for _, m := range perLayerMetrics() {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		if err := root.write(filepath.Join(spanDir, "bench.jsonl")); err != nil {
			return res, err
		}
		return res, nil
	}
	vals := endToEndValues(plain)
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return res, nil
}

// endToEndValues takes the median of each end-to-end metric over the
// successful app runs.
func endToEndValues(runs []iterResult) map[string]float64 {
	pick := func(f func(iterResult) float64) float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = f(r)
		}
		return median(v)
	}
	return map[string]float64{
		"ops_per_s":   pick(func(r iterResult) float64 { return float64(r.Ops) / r.WallS }),
		"cpu_s":       pick(func(r iterResult) float64 { return r.CPUS }),
		"alloc_mb":    pick(func(r iterResult) float64 { return r.AllocB / 1e6 }),
		"peak_rss_mb": pick(func(r iterResult) float64 { return r.PeakRSSB / 1e6 }),
		"setup_s":     pick(func(r iterResult) float64 { return r.SetupS }),
	}
}

// layerValues aggregates a traced run: CPU shares from the summed profile
// samples of the traced app runs, medians of their counters, the virtual
// result's median and spread over every app run, and the probes.
func layerValues(plain, traced []iterResult, probes map[string]float64) map[string]float64 {
	out := map[string]float64{}
	var total int64
	for _, r := range traced {
		for _, n := range r.Samples {
			total += n
		}
	}
	for _, mod := range modules {
		var n int64
		for _, r := range traced {
			n += r.Samples[mod]
		}
		out[mod+".cpu_share"] = ratio(float64(n), float64(total))
	}
	keys := map[string]bool{}
	for _, r := range traced {
		for k := range r.Layer {
			keys[k] = true
		}
	}
	for k := range keys {
		v := make([]float64, 0, len(traced))
		for _, r := range traced {
			if x, ok := r.Layer[k]; ok {
				v = append(v, x)
			}
		}
		out[k] = median(v)
	}
	var virt, wallPlain, wallTraced []float64
	for _, r := range plain {
		virt = append(virt, r.VirtualS)
		wallPlain = append(wallPlain, r.WallS)
	}
	for _, r := range traced {
		virt = append(virt, r.VirtualS)
		wallTraced = append(wallTraced, r.WallS)
	}
	out["sim.virtual_s"] = median(virt)
	if len(virt) > 0 {
		lo, hi := virt[0], virt[0]
		for _, v := range virt {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		out["sim.virtual_s_spread"] = ratio(hi-lo, median(virt))
	}
	out["traced.overhead_ratio"] = ratio(median(wallTraced), median(wallPlain))
	for k, v := range probes {
		out[k] = v
	}
	return out
}

// median returns the median of v, or 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printTable writes the metrics and the host shape to standard error.
func printTable(name string, res result) {
	fmt.Fprintf(os.Stderr, "workload %s: %d runs, %d failed, median %.3f s stolen per run (host: %d CPUs, GOMAXPROCS %d, %d delivery shards, %s)\n",
		name, res.Attempted, res.Failed, res.stolen, runtime.NumCPU(), runtime.GOMAXPROCS(0), res.shards, runtime.Version())
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", k, m.Value, m.Unit)
	}
}
