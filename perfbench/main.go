// Command perfbench is the repository benchmark: four closed-loop
// workloads over the debugger stack, each reporting the end-to-end
// metrics a user sees (tracing off) or, with --trace 1, the per-layer
// metrics of a separately traced pass. See README.md for the workloads,
// the metrics and the layer each one attributes time to.
//
//	bash perfbench/run.sh --workload remote-session --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A fuller record (host stamp,
// sample counts, percentiles used, spans of traced runs) is written under
// --out and never overwrites an earlier one.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
)

// bench is one workload, set up and ready to run operations.
type bench interface {
	// op runs operation i as client c and records its samples in ph.
	// Operation i's inputs depend only on the seed and i.
	op(ph *phase, c, i int) error
	// verify checks every output of a finished phase against its
	// reference, outside the timed window, and returns how many
	// operations failed the check.
	verify(ph *phase) int
	// layers adds the per-layer metrics of a traced phase.
	layers(ph *phase, m map[string]float64)
	close()
}

type workload struct {
	name string
	// clients is the closed-loop concurrency; it is capped at nproc.
	clients int
	// repeats marks a workload whose operations all do the same work:
	// the spread of their times is the host's, so its tail metrics
	// report the median.
	repeats bool
	setup   func(seed int64, clients int, tr *tracer) (bench, error)
}

// console-rtt runs one client: with two, the clients' command streams
// fell into and out of step from run to run, and its medians moved by up
// to a third between runs.
var workloads = []workload{
	{name: "remote-session", clients: 2, setup: setupRemote},
	{name: "console-rtt", clients: 1, setup: setupConsole},
	{name: "explore-listbug", clients: 1, repeats: true, setup: setupExplore},
	{name: "fleet-room", clients: 1, repeats: true, setup: setupFleet},
}

// phase collects one closed-loop measurement window.
type phase struct {
	tr *tracer // nil when untraced

	mu     sync.Mutex
	job    []float64 // ms: one whole user request
	step   []float64 // µs: one request-reply step inside it
	first  []float64 // ms: request sent to first result delivered
	simSec float64   // simulated device seconds executed
	items  float64   // work items completed (states_per_s numerator)
	digest map[int]uint64
	opErrs map[int]error

	n       int // operations attempted
	elapsed time.Duration
}

func newPhase(tr *tracer) *phase {
	return &phase{tr: tr, digest: map[int]uint64{}, opErrs: map[int]error{}}
}

// add records samples under the phase lock.
func (ph *phase) add(f func(ph *phase)) {
	ph.mu.Lock()
	f(ph)
	ph.mu.Unlock()
}

// drive runs a closed loop: each client starts its next operation only
// when the previous one has returned, until d has passed.
func (ph *phase) drive(b bench, clients int, d time.Duration) {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if err := b.op(ph, c, i); err != nil {
					ph.add(func(ph *phase) { ph.opErrs[i] = err })
				}
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.n = int(next.Load())
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every --trace 0 run reports.
// The command and start tails are reported at the 95th and 75th
// percentiles: on a shared 2-vCPU host their 99th and 90th percentiles
// moved by more than a quarter between runs of the same code (see
// perfbench/README.md, "Tail percentiles").
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sim_s_per_s", "sim-s/s"},
	{"session_p50_ms", "ms"},
	{"session_p90_ms", "ms"},
	{"cmd_p50_us", "us"},
	{"cmd_p95_us", "us"},
	{"start_p50_ms", "ms"},
	{"start_p75_ms", "ms"},
	{"states_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
}

// perLayer lists the per-layer metrics every --trace 1 run reports. A
// workload that does not exercise a layer reports 0 for it.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	for _, l := range append(append([]string(nil), layers...), "other") {
		out = append(out, struct{ name, unit string }{l + ".cpu_share", "ratio"})
	}
	return append(out, []struct{ name, unit string }{
		{"engine.session_ms_p50", "ms"},
		{"backend.session_ms_p50", "ms"},
		{"service.overhead_ms_p50", "ms"},
		{"tracecodec.bytes_per_sample", "B"},
		{"server.bytes_per_session", "B"},
		{"scenario.template_use_ratio", "ratio"},
		{"gateway.cmd_us_p50", "us"},
		{"backend.cmd_us_p50", "us"},
		{"backend.cmd_us_p99", "us"},
		{"gateway.self_us_p50", "us"},
		{"client.self_us_p50", "us"},
		{"gateway.gossip_frames_per_cmd", "count"},
		{"gateway.frames_relayed_per_cmd", "count"},
		{"wire.bytes_per_cmd", "B"},
		{"backend.start_ms_p50", "ms"},
		{"scenario.warm_fork_ratio", "ratio"},
		{"scenario.spare_pop_ratio", "ratio"},
		{"explore.expand_busy_s", "s"},
		{"explore.dedup_busy_s", "s"},
		{"explore.coordinator_self_s", "s"},
		{"explore.expand_calls", "count"},
		{"explore.waves", "count"},
		{"explore.dedup_hit_ratio", "ratio"},
		{"explore.segments_per_state", "ratio"},
		{"fleet.bytes_per_tag", "B"},
		{"fleet.reboots_per_tag", "count"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.alloc_kb_per_op", "KiB"},
		{"trace_overhead_pct", "%"},
	}...)
}()

// setupRepeats is how often a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupRepeats = 9

type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: remote-session|console-rtt|explore-listbug|fleet-room, or all")
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Float64("seconds", 10, "length of one measurement window in seconds")
	trace := fl.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	out := fl.String("out", ".bench_build/perfbench-runs", "directory for run records")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if w.name == *name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := checkCheckout(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, w := range chosen {
		cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
		res, rec, err := measure(cfg)
		if err == nil {
			err = writeRecord(cfg, rec)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if len(chosen) > 1 {
			// --workload all: a readable table per workload before its line.
			fmt.Fprintf(stdout, "%s (seed %d, %gs, trace %d):\n", w.name, *seed, *seconds, *trace)
			names := make([]string, 0, len(res.Metrics))
			for n := range res.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(stdout, "  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

// checkCheckout fails fast outside a repository checkout: the workloads
// read firmware sources from it.
func checkCheckout() error {
	for _, f := range []string{"go.mod", "firmware/printer.s", "firmware/selfcheck.s"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the fuller account written under --out.
type record struct {
	Stamp     stamp              `json:"stamp"`
	Result    result             `json:"result"`
	SetupS    []float64          `json:"setup_s_samples"`
	Timings   map[string]timing  `json:"timings"`
	Failures  []string           `json:"failures,omitempty"`
	Untraced  map[string]float64 `json:"untraced_end_to_end,omitempty"`
	Spans     []span             `json:"-"`
	Profile   []byte             `json:"-"`
	CPUSample int                `json:"cpu_profile_samples,omitempty"`
}

func measure(cfg config) (result, *record, error) {
	nproc := runtime.NumCPU()
	parallel.SetWorkers(nproc)
	w := cfg.workload
	if w.clients > nproc {
		w.clients = nproc
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	rec := &record{Stamp: newStamp(cfg), Timings: map[string]timing{}}

	// Set up several times and keep the last.
	var b bench
	for k := 0; k < setupRepeats; k++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = w.setup(cfg.seed, w.clients, nil); err != nil {
			return result{}, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(t0).Seconds())
	}
	plain := newPhase(nil)
	if err := resetPeakRSS(); err != nil {
		b.close()
		return result{}, nil, err
	}
	plain.drive(b, w.clients, window)
	peakMB := procStatusMB("VmHWM")
	failures := failedOps(plain, b.verify(plain))
	b.close()
	e2e := endToEndMetrics(plain, w.repeats, median(rec.SetupS), peakMB, len(failures))
	rec.Timings["job_ms"] = summarize(plain.job)
	rec.Timings["step_us"] = summarize(plain.step)
	rec.Timings["first_ms"] = summarize(plain.first)

	res := result{Attempted: plain.n, Failed: len(failures), Metrics: map[string]metric{}}
	rec.Failures = failures
	if !cfg.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
	} else {
		layer, traced, bad, err := tracedPass(cfg, w, window, rec)
		if err != nil {
			return result{}, nil, err
		}
		// The traced pass must not change what the program computed.
		tFail := failedOps(traced, bad)
		for i, d := range traced.digest {
			if pd, ok := plain.digest[i]; ok && pd != d {
				tFail = append(tFail, fmt.Sprintf("op %d: traced output differs from untraced", i))
			}
		}
		rec.Failures = append(rec.Failures, tFail...)
		res.Attempted += traced.n
		res.Failed += len(tFail)
		tE2E := endToEndMetrics(traced, w.repeats, 0, 0, 0)
		layer["trace_overhead_pct"] = 100 * (ratio(e2e["states_per_s"], tE2E["states_per_s"]) - 1)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
		}
		rec.Untraced = e2e
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rec.Result = res
	return res, rec, nil
}

// tracedPass sets the workload up afresh with spans on, profiles the CPU
// for one window, and derives the per-layer metrics.
func tracedPass(cfg config, w workload, window time.Duration, rec *record) (map[string]float64, *phase, int, error) {
	tr := newTracer()
	b, err := w.setup(cfg.seed, w.clients, tr)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s traced setup: %w", w.name, err)
	}
	tr.reset() // spans of the set-up's warm-up are not the window's
	ph := newPhase(tr)
	runtime.GC()
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcClock()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		b.close()
		return nil, nil, 0, err
	}
	ph.drive(b, w.clients, window)
	pprof.StopCPUProfile()
	gc1, cpu1 := gcClock()
	runtime.ReadMemStats(&ms1)

	layer := map[string]float64{}
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		b.close()
		return nil, nil, 0, err
	}
	rec.CPUSample = samples
	rec.Profile = prof.Bytes()
	for l, v := range shares {
		layer[l+".cpu_share"] = v
	}
	layer["runtime.gc_cpu_share"] = ratio(gc1-gc0, cpu1-cpu0)
	layer["runtime.alloc_kb_per_op"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, float64(ph.n))
	bad := b.verify(ph)
	b.layers(ph, layer)
	b.close()
	rec.Spans = tr.spans
	return layer, ph, bad, nil
}

// failedOps lists the operations that errored plus the verify failures.
func failedOps(ph *phase, verifyFailed int) []string {
	var out []string
	for i, err := range ph.opErrs {
		out = append(out, fmt.Sprintf("op %d: %v", i, err))
	}
	sort.Strings(out)
	for k := 0; k < verifyFailed; k++ {
		out = append(out, "output differs from its reference")
	}
	return out
}

func endToEndMetrics(ph *phase, repeats bool, setupS, peakMB float64, failed int) map[string]float64 {
	secs := ph.elapsed.Seconds()
	tail := func(xs []float64, want float64) float64 {
		if repeats {
			return percentile(xs, 50)
		}
		return percentile(xs, reportPercentile(want, len(xs)))
	}
	return map[string]float64{
		"setup_s":        setupS,
		"sim_s_per_s":    ph.simSec / secs,
		"session_p50_ms": percentile(ph.job, 50),
		"session_p90_ms": tail(ph.job, 90),
		"cmd_p50_us":     percentile(ph.step, 50),
		"cmd_p95_us":     tail(ph.step, 95),
		"start_p50_ms":   percentile(ph.first, 50),
		"start_p75_ms":   tail(ph.first, 75),
		"states_per_s":   ph.items / secs,
		"peak_rss_mb":    peakMB,
		"ok_frac":        1 - ratio(float64(failed), float64(ph.n)),
	}
}

// resetPeakRSS collects garbage, returns the freed heap to the system and
// restarts the kernel's peak resident set size (VmHWM) from the current
// one, so peak_rss_mb covers the window that follows and not an earlier
// set-up or workload of the same process.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if hwm, rss := procStatusMB("VmHWM"), procStatusMB("VmRSS"); hwm == 0 || hwm > rss+16 {
		return fmt.Errorf("reset peak RSS: VmHWM %.1f MB stayed above VmRSS %.1f MB", hwm, rss)
	}
	return nil
}

// procStatusMB reads one kB field of /proc/self/status, in MB.
func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == field+":" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// stamp identifies the host, toolchain, code and inputs of one run.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	Time       string  `json:"time"`
}

func newStamp(cfg config) stamp {
	host, _ := os.Hostname()
	commit := "unknown (not a git checkout)"
	git := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Only the checkout itself may answer, not a repository above it.
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{
		Workload: cfg.workload.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, SourceHash: sourceHash(),
		Time: time.Now().UTC().Format(time.RFC3339Nano),
	}
}

// sourceHash digests the program's sources, which identifies the code
// measured even where the checkout carries no commit.
func sourceHash() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "cmd", "firmware"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			b, err := os.ReadFile(p)
			if err != nil {
				return nil
			}
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
			h.Write(b)
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeRecord stores the run record, and a traced run's spans, under a
// name no other run uses.
func writeRecord(cfg config, rec *record) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d-%d", cfg.workload.name, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace], time.Now().UnixNano()))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(rec.Profile) > 0 {
		if err := os.WriteFile(base+".cpu.pprof", rec.Profile, 0o644); err != nil {
			return err
		}
	}
	if len(rec.Spans) == 0 {
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range rec.Spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(base+".spans.jsonl", buf.Bytes(), 0o644)
}

// mix derives a well-spread 63-bit value from a seed and an index
// (splitmix64), so neighbouring operations get unrelated inputs.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	v := int64(z >> 1)
	if v == 0 {
		v = 1
	}
	return v
}

// digest hashes the parts of an output that must not change.
func digest(parts ...any) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		switch v := p.(type) {
		case []byte:
			h.Write(v)
		case string:
			io.WriteString(h, v)
		default:
			fmt.Fprintf(h, "%v", v)
		}
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// workersFor caps verification goroutines at nproc.
func workersFor(n int) int {
	if p := runtime.NumCPU(); n > p {
		return p
	}
	return n
}
