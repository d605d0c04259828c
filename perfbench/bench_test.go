package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/fleet"
)

// The workloads read firmware from the repository root, as the benchmark
// does when run.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// Whatever it picks leaves at least minTail samples beyond it.
		if p := tailPercentile(c.n); c.n >= 20 && beyond(c.n, p) < minTail {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond it", c.n, p, minTail)
		}
	}
	if got := reportPercentile(99, 150); got != 90 {
		t.Errorf("reportPercentile(99, 150) = %v, want 90", got)
	}
	if got := reportPercentile(90, 5000); got != 90 {
		t.Errorf("reportPercentile(90, 5000) = %v, want 90", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if p50, p90 := percentile(xs, 50), percentile(xs, 90); p50 != 50 || p90 != 90 {
		t.Errorf("nearest-rank percentiles of 1..100: p50=%v p90=%v", p50, p90)
	}
}

func TestRepeatsReportMedianTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	ph := &phase{job: xs, step: xs, first: xs, n: len(xs), elapsed: time.Second}
	tails := map[string]float64{"session_p90_ms": 900, "cmd_p95_us": 950, "start_p75_ms": 750}
	for _, repeats := range []bool{false, true} {
		m := endToEndMetrics(ph, repeats, 0, 0, 0)
		for name, want := range tails {
			if repeats {
				want = m["session_p50_ms"]
			}
			if m[name] != want {
				t.Errorf("repeats=%v: %s = %v, want %v", repeats, name, m[name], want)
			}
		}
	}
}

func TestLayerBucketing(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/energy.(*Supply).Step":                   "energy",
		"repro/internal/cluster.(*Gateway).relay.func1":          "cluster",
		"repro/internal/console.(*Console).statusCmd":            "console",
		"repro/internal/memsim.(*Memory).WriteWord":              "memsim",
		"repro/internal/parallel.MapN[go.shape.struct {}].func1": "other",
		"repro/internal/core.(*Rig).RunUntil":                    "other",
		"repro/internal/explore.runWaves":                        "explore",
		"runtime.mallocgc":                                       "runtime",
		"runtime/internal/atomic.(*Uint32).Load":                 "runtime",
		"internal/runtime/maps.(*Map).putSlotSmallFastStr":       "runtime",
		"aeshashbody":                                   "runtime",
		"internal/runtime/syscall.Syscall6":             "other",
		"syscall.Syscall":                               "other",
		"net.(*conn).Read":                              "other",
		"type:.eq.[5]float64":                           "other",
		"repro/perfbench.(*spanConn).Read":              "other",
		"repro/internal/wire.AppendMsg":                 "wire",
		"repro/internal/tracecodec.(*Encoder).Encode":   "tracecodec",
		"repro/internal/server.(*Server).session.func2": "server",
		"repro/internal/scenario.(*Pool).Run":           "scenario",
		"repro/internal/fleet.(*fleetState).stepTag":    "fleet",
		"repro/internal/edb.(*EDB).LeakageCurrent":      "edb",
		"repro/internal/sim.(*RNG).Jitter":              "sim",
		"repro/internal/periph.(*UART).Tick":            "periph",
		"repro/internal/isa.(*CPU).Step":                "isa",
		"repro/internal/client.(*Client).recv":          "client",
		"repro/internal/device.(*Device).advance":       "device",
		"repro/internal/scenario_test.TestPool":         "other",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("%s -> %s, want %s", fn, got, want)
		}
	}
}

// TestCPUShares decodes a real profile of simulation work and checks the
// shares account for every sample and land on the simulation layers.
func TestCPUShares(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := fleet.Run(fleetConfig(1, 50)); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples", samples)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
	if sim := shares["energy"] + shares["device"] + shares["sim"] + shares["fleet"]; sim <= 0 {
		t.Errorf("no time charged to the simulation layers of a simulation profile: %v", shares)
	}
}

// ownLayers are per-layer metrics each workload must measure as non-zero.
var ownLayers = map[string][]string{
	"remote-session":  {"energy.cpu_share", "isa.cpu_share", "engine.session_ms_p50", "backend.session_ms_p50", "tracecodec.bytes_per_sample", "server.bytes_per_session"},
	"console-rtt":     {"gateway.cmd_us_p50", "backend.cmd_us_p50", "backend.cmd_us_p99", "gateway.gossip_frames_per_cmd", "gateway.frames_relayed_per_cmd", "wire.bytes_per_cmd", "backend.start_ms_p50", "scenario.warm_fork_ratio"},
	"explore-listbug": {"explore.cpu_share", "explore.expand_busy_s", "explore.dedup_busy_s", "explore.expand_calls", "explore.waves", "explore.dedup_hit_ratio", "explore.segments_per_state"},
	"fleet-room":      {"fleet.bytes_per_tag", "fleet.reboots_per_tag", "runtime.alloc_kb_per_op"},
}

// TestTinyPass runs every workload briefly in both modes and checks it
// reports exactly the metrics BENCHMARK.json names, with their units, and
// that its outputs verify.
func TestTinyPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for k, w := range workloads {
		if spec.Workloads[k].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", k, spec.Workloads[k].Name, w.name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := measure(config{workload: w, seed: 7, seconds: 0.2, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if trace {
				for _, name := range ownLayers[w.name] {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestPeakRSSPerWorkload runs a memory-heavy workload and then a light one
// in one process, as --workload all does, and checks that the light one
// reports its own peak and not the heavy one's.
func TestPeakRSSPerWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	peak := func(name string) float64 {
		for _, w := range workloads {
			if w.name == name {
				res, _, err := measure(config{workload: w, seed: 7, seconds: 0.2})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return res.Metrics["peak_rss_mb"].Value
			}
		}
		t.Fatalf("no workload %s", name)
		return 0
	}
	heavy := peak("fleet-room")
	light := peak("console-rtt")
	if light <= 0 || light >= heavy/2 {
		t.Errorf("console-rtt after fleet-room: peak_rss_mb %.1f, fleet-room %.1f; want under half", light, heavy)
	}
}
