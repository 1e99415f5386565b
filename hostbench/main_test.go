package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// against the benchmark's own catalog.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCatalogMatchesBenchmarkFile checks that BENCHMARK.json names exactly
// the workloads and metrics the benchmark reports, each with a unit.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloadList(false) {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			g, w := got[i], want[i]
			if g.Unit == "" {
				t.Errorf("%s: %s has no unit", kind, g.Name)
			}
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s, %s), the benchmark reports %s (%s, %s)",
					kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayerMetrics())
}

// TestSmoke runs every workload at tiny sizes, untraced once and traced
// twice, plus the layer probes. It fails if a run fails its output check,
// if any named metric is missing, or if a program count that should repeat
// exactly (messages sent, flush-all ranks scanned) differs between the two
// traced runs.
func TestSmoke(t *testing.T) {
	probes, err := runProbes(1, true, newSpans(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadList(true) {
		t.Run(w.name, func(t *testing.T) {
			plain := runIteration(w, false, nil, iterationDeadline)
			a := runIteration(w, true, newSpans(2), iterationDeadline)
			b := runIteration(w, true, nil, iterationDeadline)
			for _, r := range []iterResult{plain, a, b} {
				if r.Err != "" {
					t.Fatal(r.Err)
				}
			}
			e2e := endToEndValues([]iterResult{plain})
			for _, m := range endToEnd {
				if v, ok := e2e[m.name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive value", m.name, v)
				}
			}
			layer := layerValues([]iterResult{plain}, []iterResult{a, b}, probes)
			for _, m := range perLayerMetrics() {
				if _, ok := layer[m.name]; !ok || m.unit == "" {
					t.Errorf("per-layer metric %s missing (unit %q)", m.name, m.unit)
				}
			}
			repeat := []string{"fabric.msgs"}
			if strings.HasPrefix(w.name, "ra_") {
				repeat = append(repeat, "mpi.flushall_scanned_ops")
			}
			for _, k := range repeat {
				if a.Layer[k] != b.Layer[k] {
					t.Errorf("%s: %v then %v; it should repeat exactly", k, a.Layer[k], b.Layer[k])
				}
			}
			if w.name == "ra_mpi_np1024" && a.Layer["mpi.flushall_scanned_ops"] == 0 {
				t.Error("mpi.flushall_scanned_ops is 0 on RandomAccess")
			}
		})
	}
}

// TestVirtualTimeRepeats checks that the FFT and CGPOP virtual results
// repeat exactly across two runs. RandomAccess is left out: its virtual
// time is known to vary run to run until virtual time becomes a pure
// function of the program (ROADMAP item 1), and the benchmark reports that
// spread as sim.virtual_s_spread instead of gating on it.
func TestVirtualTimeRepeats(t *testing.T) {
	for _, name := range []string{"fft_mpi_np64", "cgpop_gasnet_np256_pull"} {
		w, _ := findWorkload(name, true)
		a := runIteration(w, false, nil, iterationDeadline)
		b := runIteration(w, false, nil, iterationDeadline)
		if a.Err != "" || b.Err != "" {
			t.Fatalf("%s: %s %s", name, a.Err, b.Err)
		}
		if a.VirtualS != b.VirtualS {
			t.Errorf("%s: sim.virtual_s %v then %v; it should repeat exactly", name, a.VirtualS, b.VirtualS)
		}
	}
}

// TestModuleSamples profiles a busy loop and checks that the decoder finds
// its samples.
func TestModuleSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profile already running:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			x ^= i * i
		}
	}
	pprof.StopCPUProfile()
	counts, err := moduleSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 || x == 1 {
		t.Fatalf("no samples decoded: %v", counts)
	}
	if got := moduleOf(packageOf("cafmpi/internal/fabric.(*Endpoint).takeSpecLocked")); got != "fabric" {
		t.Errorf("takeSpecLocked maps to %q, want fabric", got)
	}
	if got := moduleOf(packageOf("internal/runtime/atomic.(*Uint32).Load")); got != "runtime" {
		t.Errorf("internal/runtime/atomic maps to %q, want runtime", got)
	}
}
