package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"cafmpi/caf"
	"cafmpi/internal/cgpop"
	"cafmpi/internal/fabric"
	"cafmpi/internal/hpcc"
	"cafmpi/internal/obs"
	"cafmpi/internal/obs/critpath"
	"cafmpi/internal/sim"
	"cafmpi/internal/trace"
)

// Output-check bounds. The FFT round trip measures 1.7e-15 to 2.3e-15 and
// the CGPOP residual reduction 2e-13 on the full-size inputs.
const (
	fftMaxError        = 1e-14
	cgpopMaxNormRatio  = 1e-12
	platformName       = "fusion"
	iterationDeadline  = 60 * time.Second
	goroutineSampleGap = 2 * time.Millisecond
)

// workload is one benchmark input: an app entry point on a machine shape.
type workload struct {
	name      string
	np        int
	substrate caf.Substrate
	// observed turns on Diag.Observe and Diag.Trace and builds the counter
	// snapshot, critical-path blame table and histograms inside the timed
	// phase, as cafrun -stats -critpath -hist -trace does.
	observed bool
	app      func(im *caf.Image) (appOut, error)
}

// appOut is what image 0 learns from the app: its op count, its virtual
// result, and a failed output check, if any.
type appOut struct {
	ops     int64
	virtual float64
	check   error
}

// workloadList returns the benchmark's workloads. tiny shrinks every input
// for the smoke test while keeping the code paths.
func workloadList(tiny bool) []workload {
	ra1024 := hpcc.RAConfig{TableBits: 10, UpdatesPerImage: 1024, Verify: true}
	fftLog, fftNP := 22, 64
	cg := cgpop.Config{NX: 256, NY: 1024, Iters: 60, Pull: true}
	raObs := hpcc.RAConfig{TableBits: 10, UpdatesPerImage: 4096, Verify: true}
	np := [4]int{1024, fftNP, 256, 256}
	if tiny {
		ra1024 = hpcc.RAConfig{TableBits: 6, UpdatesPerImage: 256, Verify: true}
		fftLog = 10
		cg = cgpop.Config{NX: 32, NY: 32, Iters: 5, Pull: true}
		raObs = hpcc.RAConfig{TableBits: 6, UpdatesPerImage: 512, Verify: true}
		np = [4]int{8, 4, 4, 8}
	}
	return []workload{
		{name: "ra_mpi_np1024", np: np[0], substrate: caf.MPI, app: raApp(ra1024)},
		{name: "fft_mpi_np64", np: np[1], substrate: caf.MPI, app: fftApp(fftLog)},
		{name: "cgpop_gasnet_np256_pull", np: np[2], substrate: caf.GASNet, app: cgpopApp(cg)},
		{name: "ra_mpi_np256_observed", np: np[3], substrate: caf.MPI, observed: true, app: raApp(raObs)},
	}
}

func findWorkload(name string, tiny bool) (workload, bool) {
	for _, w := range workloadList(tiny) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func raApp(cfg hpcc.RAConfig) func(*caf.Image) (appOut, error) {
	return func(im *caf.Image) (appOut, error) {
		res, err := hpcc.RandomAccess(im, cfg)
		if err != nil {
			return appOut{}, err
		}
		out := appOut{ops: res.Updates, virtual: res.Seconds}
		if !res.Verified || res.Errors != 0 {
			out.check = fmt.Errorf("RandomAccess: %d table errors (verified %v)", res.Errors, res.Verified)
		}
		return out, nil
	}
}

func fftApp(logSize int) func(*caf.Image) (appOut, error) {
	return func(im *caf.Image) (appOut, error) {
		res, err := hpcc.FFT(im, hpcc.FFTConfig{LogSize: logSize, Verify: true})
		if err != nil {
			return appOut{}, err
		}
		out := appOut{ops: res.Points, virtual: res.Seconds}
		if !res.Verified || !(res.MaxError < fftMaxError) {
			out.check = fmt.Errorf("FFT: round-trip error %.3g, bound %.3g (verified %v)", res.MaxError, fftMaxError, res.Verified)
		}
		return out, nil
	}
}

func cgpopApp(cfg cgpop.Config) func(*caf.Image) (appOut, error) {
	return func(im *caf.Image) (appOut, error) {
		res, err := cgpop.Run(im, cfg)
		if err != nil {
			return appOut{}, err
		}
		out := appOut{ops: int64(cfg.NX) * int64(cfg.NY) * int64(res.Iterations), virtual: res.Seconds}
		if ratio := res.FinalNorm / res.InitialNorm; !(ratio < cgpopMaxNormRatio) {
			out.check = fmt.Errorf("CGPOP: residual fell only to %.3g of its start, bound %.3g", ratio, cgpopMaxNormRatio)
		}
		return out, nil
	}
}

// iterResult is one app run, measured in its own process. Err holds a run
// error or a failed output check; either makes the run a failed operation.
type iterResult struct {
	Err      string  `json:"err,omitempty"`
	SetupS   float64 `json:"setup_s"`
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	AllocB   float64 `json:"alloc_bytes"`
	PeakRSSB float64 `json:"peak_rss_bytes"`
	StolenS  float64 `json:"stolen_s"` // taken out of SetupS and WallS
	Ops      int64   `json:"ops"`
	VirtualS float64 `json:"virtual_s"`
	Shards   int     `json:"shards"`
	// Traced runs only: program counters and Go runtime figures by
	// per-layer metric name, and CPU-profile self samples by module.
	Layer   map[string]float64 `json:"layer,omitempty"`
	Samples map[string]int64   `json:"samples,omitempty"`
}

// hostSample is the host state read at the two ends of the timed phase.
type hostSample struct {
	cpu     float64
	stolen  float64
	metrics []metrics.Sample
}

// hostMetricNames are the runtime/metrics read at both ends of the timed
// phase, indexed by the constants below.
var hostMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

const (
	mAllocBytes = iota
	mAllocObjects
	mGCCPU
	mSchedLatencies
)

func readHost() hostSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	h := hostSample{cpu: tvSeconds(ru.Utime) + tvSeconds(ru.Stime), stolen: stolenSeconds(),
		metrics: make([]metrics.Sample, len(hostMetricNames))}
	for i, n := range hostMetricNames {
		h.metrics[i].Name = n
	}
	metrics.Read(h.metrics)
	return h
}

// stolenSeconds returns the time the hypervisor has kept this machine's
// CPUs from running since boot, averaged over the CPUs: the steal column
// of the cpu line of /proc/stat (in USER_HZ, 100 ticks a second) divided by
// the number of cpuN lines. On a shared virtual machine the stolen time
// stretches wall time by up to a factor of two without any change in the
// program, so wall times are reported with it taken out. It is 0 where
// the kernel reports no steal.
func stolenSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0 // no /proc/stat: no correction
	}
	var steal float64
	cpus := 0
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu":
			steal, _ = strconv.ParseFloat(f[8], 64) // a malformed field reads as no steal
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if cpus == 0 {
		return 0
	}
	return steal / 100 / float64(cpus)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)*1e-6 }

func peakRSSBytes() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024                // Linux reports KiB
}

func (h hostSample) uint(i int) float64 { return float64(h.metrics[i].Value.Uint64()) }

// schedP99 returns the 99th percentile of the scheduler-latency histogram
// accumulated between two samples, in seconds (the bucket's upper edge).
func schedP99(a, b hostSample) float64 {
	ha, hb := a.metrics[mSchedLatencies].Value.Float64Histogram(), b.metrics[mSchedLatencies].Value.Float64Histogram()
	var total uint64
	d := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		d[i] = hb.Counts[i] - ha.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range d {
		cum += c
		if cum >= want {
			if up := hb.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return hb.Buckets[i]
		}
	}
	return hb.Buckets[len(hb.Buckets)-1]
}

// goroutineSampler tracks the most live goroutines seen during the timed
// phase.
type goroutineSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	max  int
}

func startGoroutineSampler() *goroutineSampler {
	g := &goroutineSampler{stop: make(chan struct{}), max: runtime.NumGoroutine()}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		t := time.NewTicker(goroutineSampleGap)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				g.max = max(g.max, runtime.NumGoroutine())
			}
		}
	}()
	return g
}

// finish stops the sampler and returns the maximum it saw.
func (g *goroutineSampler) finish() int {
	close(g.stop)
	g.done.Wait()
	return g.max
}

// runIteration runs one app run of w and measures it. The timed phase
// starts when image 0 leaves a first world barrier, which every image
// reaches only after booting its substrate, and ends when RunWorld returns
// (plus, for an observed workload, the reports built from its planes).
// traced adds a CPU profile, the obs counters, the trace decomposition and
// runtime/metrics figures; those runs are kept apart from the end-to-end
// figures.
func runIteration(w workload, traced bool, sp *spans, deadline time.Duration) iterResult {
	platform := fabric.Platform(platformName)
	planes := w.observed || traced
	cfg := caf.Config{Substrate: w.substrate, Platform: platform,
		Diag: caf.Diag{Observe: planes, Trace: planes}}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	var (
		setupEnd time.Time
		h0       hostSample
		prof     bytes.Buffer
		profOn   bool
		sampler  *goroutineSampler
		app      appOut
		clocks   = make([]int64, w.np)
		cats     = trace.Categories()
		catNS    = make([][]int64, w.np)
	)
	res := iterResult{Shards: fabric.ShardsFor(platform, w.np)}
	runSpan, closeRun := sp.open("caf.RunWorld", 0)
	stolen0 := stolenSeconds()
	start := time.Now()
	world, err := caf.RunWorldContext(ctx, w.np, cfg, func(im *caf.Image) error {
		defer func() { clocks[im.ID()] = im.Proc().Now() }()
		if err := im.World().Barrier(); err != nil {
			return err
		}
		if im.ID() == 0 {
			setupEnd = time.Now()
			h0 = readHost()
			if traced {
				profOn = pprof.StartCPUProfile(&prof) == nil
				sampler = startGoroutineSampler()
			}
		}
		if err := im.World().Barrier(); err != nil {
			return err
		}
		out, err := w.app(im)
		if err != nil {
			return err
		}
		if im.ID() == 0 {
			app = out
		}
		if planes {
			tr := im.Tracer()
			row := make([]int64, len(cats))
			for i, c := range cats {
				row[i] = tr.Total(c)
			}
			catNS[im.ID()] = row
		}
		return nil
	})
	closeRun()
	if err == nil && app.check == nil && w.observed {
		app.check = observedReports(world, clocks, sp, runSpan)
	}
	end := time.Now()
	if !setupEnd.IsZero() {
		sp.add("setup", runSpan, start, setupEnd)
		sp.add("timed", runSpan, setupEnd, end)
	}
	h1 := readHost()
	if profOn {
		pprof.StopCPUProfile()
	}
	goroutinesMax := 0
	if sampler != nil {
		goroutinesMax = sampler.finish()
	}
	res.PeakRSSB = peakRSSBytes()
	switch {
	case err != nil:
		res.Err = err.Error()
		return res
	case app.check != nil:
		res.Err = app.check.Error()
		return res
	}
	res.SetupS = setupEnd.Sub(start).Seconds() - (h0.stolen - stolen0)
	res.WallS = end.Sub(setupEnd).Seconds() - (h1.stolen - h0.stolen)
	res.StolenS = h1.stolen - stolen0
	res.CPUS = h1.cpu - h0.cpu
	res.AllocB = h1.uint(mAllocBytes) - h0.uint(mAllocBytes)
	res.Ops = app.ops
	res.VirtualS = app.virtual
	if !traced {
		return res
	}

	snap := obs.Enabled(world).Snapshot()
	c := snap.Counters
	l := map[string]float64{
		"fabric.msgs":                 float64(c["msgs_sent"]),
		"fabric.bytes":                float64(c["bytes_sent"]),
		"fabric.rndv_msgs":            float64(c["rendezvous_msgs"]),
		"fabric.unexpected_depth_max": float64(c["unexpected_queue_max"]),
		"fabric.unreceived_msgs":      float64(c["msgs_sent"] - c["msgs_recv"]),
		"mpi.rdma_puts":               float64(c["rdma_puts"]),
		"mpi.flushall_calls":          float64(c["flushall_calls"]),
		"mpi.flushall_scanned_ops":    float64(c["flushall_scanned_ops"]),
		"mpi.flushall_scan_per_call":  ratio(float64(c["flushall_scanned_ops"]), float64(c["flushall_calls"])),
		"gasnet.ams_sent":             float64(c["ams_sent"]),
		"gasnet.srq_stalls":           float64(c["srq_stalls"]),
		"gasnet.nbi_syncs":            float64(c["nbi_syncs"]),
		"obs.bytes_per_image":         float64(snap.ObsBytesPerImage),
		"obs.events_dropped":          float64(snap.EventsDropped),
		"runtime.sched_p99_ms":        schedP99(h0, h1) * 1e3,
		"runtime.gc_cpu_s":            h1.metrics[mGCCPU].Value.Float64() - h0.metrics[mGCCPU].Value.Float64(),
		"runtime.mallocs":             h1.uint(mAllocObjects) - h0.uint(mAllocObjects),
		"runtime.goroutines_max":      float64(goroutinesMax),
	}
	for i, cat := range cats {
		var ns int64
		for _, row := range catNS {
			ns += row[i]
		}
		l["trace."+cat.String()+"_s"] = float64(ns) * 1e-9
	}
	res.Layer = l
	if profOn {
		if res.Samples, err = moduleSamples(prof.Bytes()); err != nil {
			res.Err = err.Error()
		}
	}
	return res
}

// observedReports builds what cafrun -stats -critpath -hist prints and
// checks that the critical path ends at the latest image clock.
func observedReports(world *sim.World, clocks []int64, sp *spans, parent int) error {
	t := time.Now()
	ow := obs.Enabled(world)
	snap := ow.Snapshot()
	t = mark(sp, "obs.Snapshot", parent, t)
	rep := critpath.Analyze(ow, clocks)
	t = mark(sp, "critpath.Analyze", parent, t)
	if len(rep.BlameTable())+len(snap.LatencyText())+len(snap.Text()) == 0 {
		return fmt.Errorf("obs: empty reports")
	}
	mark(sp, "obs.reports", parent, t)
	var last int64
	for _, c := range clocks {
		last = max(last, c)
	}
	if rep.FinishNS != last {
		return fmt.Errorf("critpath: finish %d ns, latest image clock %d ns", rep.FinishNS, last)
	}
	return nil
}

// mark records a span from start to now and returns now.
func mark(sp *spans, name string, parent int, start time.Time) time.Time {
	now := time.Now()
	sp.add(name, parent, start, now)
	return now
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
