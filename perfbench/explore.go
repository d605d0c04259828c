package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/explore"
	"repro/internal/scenario"
)

// exploreStates caps every exploration. With 24 candidates per segment
// and a 64-deep frontier the unguarded linked list never closes, so each
// run is truncated at the cap (about 0.2 s on a 2-vCPU host). At 50 000
// states the process peaked at 554 MB, and its host time moved by a
// third between two sets of runs of the same code; at 10 000 it peaks
// near 80 MB.
const exploreStates = 10_000

type exploreBench struct {
	cfg explore.Config

	mu      sync.Mutex
	reports map[int]*explore.Report
	stats   []exploreStats
}

// exploreStats are one exploration's executor-boundary timings.
type exploreStats struct {
	wall, expand, dedup time.Duration
	calls, waves        int
}

// exploreConfig is the console command "explore noguards mode=write
// writes=24 depth=64 states=50000 workers=<nproc>" on the linkedlist
// firmware, with the firmware seed drawn from the workload seed.
func exploreConfig(seed int64, states int) (explore.Config, error) {
	return scenario.ExploreConfig(scenario.Spec{App: "linkedlist", Seed: mix(seed, 0)},
		scenario.ExploreSpec{Mode: explore.ModeWrite, Writes: 24, Depth: 64, States: states, Workers: runtime.NumCPU()})
}

// setupExplore builds the checker configuration and runs one small
// exploration, so rig construction and the first heap growth happen
// before the window.
func setupExplore(seed int64, _ int, _ *tracer) (bench, error) {
	cfg, err := exploreConfig(seed, exploreStates)
	if err != nil {
		return nil, err
	}
	warm, err := exploreConfig(seed, exploreStates/2)
	if err != nil {
		return nil, err
	}
	if _, err := explore.Run(warm); err != nil {
		return nil, fmt.Errorf("warm-up exploration: %w", err)
	}
	return &exploreBench{cfg: cfg, reports: map[int]*explore.Report{}}, nil
}

// timedExecutor times the calls the coordinator makes into its executor.
// With one executor the coordinator calls it from one goroutine at a time.
type timedExecutor struct {
	explore.Executor
	ph *phase
	op int

	expand, dedup time.Duration
	calls         int
}

func (x *timedExecutor) Expand(states []explore.ShardState) ([]explore.Expansion, error) {
	t0 := time.Now()
	out, err := x.Executor.Expand(states)
	t1 := time.Now()
	x.expand += t1.Sub(t0)
	x.calls++
	x.ph.tr.add("explore.expand", x.op, t0, t1)
	x.ph.add(func(ph *phase) { ph.step = append(ph.step, float64(t1.Sub(t0).Nanoseconds())/1e3) })
	return out, err
}

func (x *timedExecutor) Dedup(part int, hashes []uint64) ([]bool, error) {
	t0 := time.Now()
	out, err := x.Executor.Dedup(part, hashes)
	t1 := time.Now()
	x.dedup += t1.Sub(t0)
	x.ph.tr.add("explore.dedup", x.op, t0, t1)
	return out, err
}

// op runs one bounded exploration on a fresh in-process executor, which
// is what explore.Run does, through RunWithExecutors so the executor
// boundary can be timed.
func (b *exploreBench) op(ph *phase, _, i int) error {
	cfg := b.cfg
	var devs []*device.Device
	var devMu sync.Mutex
	newRig := cfg.NewRig
	cfg.NewRig = func() (*device.Device, device.Program, error) {
		d, p, err := newRig()
		devMu.Lock()
		devs = append(devs, d)
		devMu.Unlock()
		return d, p, err
	}
	t0 := time.Now()
	local, err := explore.NewLocalExecutor(cfg)
	if err != nil {
		return err
	}
	defer local.Close()
	x := &timedExecutor{Executor: local, ph: ph, op: i}
	var ds explore.DistStats
	rep, err := explore.RunWithExecutors(cfg, []explore.Executor{x}, 1, &ds)
	t1 := time.Now()
	if err != nil {
		return err
	}
	ph.tr.add("explore.run", i, t0, t1)
	var simSec float64
	devMu.Lock()
	for _, d := range devs {
		st := d.Stats()
		simSec += float64(st.ActiveTime + st.TetheredTime + st.ChargeTime)
	}
	devMu.Unlock()
	d := digest(rep.Format(), rep.States, rep.Branches, rep.Segments, rep.DedupHits, rep.Capped,
		rep.Truncated, rep.Outcomes, rep.AssertStates, rep.WARStates, len(rep.Violations))
	ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
	ph.add(func(ph *phase) {
		// The caller gets the report only when the run ends, so its first
		// result is its whole result.
		ph.job = append(ph.job, ms)
		ph.first = append(ph.first, ms)
		ph.items += float64(rep.States)
		ph.simSec += simSec
		ph.digest[i] = d
	})
	b.mu.Lock()
	b.reports[i] = rep
	b.stats = append(b.stats, exploreStats{wall: t1.Sub(t0), expand: x.expand, dedup: x.dedup, calls: x.calls, waves: ds.Waves})
	b.mu.Unlock()
	return nil
}

// verify requires every report to find the bug, to stop at the cap, and
// to equal every other report of the run.
func (b *exploreBench) verify(*phase) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := make([]int, 0, len(b.reports))
	for i := range b.reports {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	bad := 0
	for _, i := range idx {
		rep, ref := b.reports[i], b.reports[idx[0]]
		if rep.Clean() || !rep.Truncated || rep.States != exploreStates || !reflect.DeepEqual(rep, ref) {
			bad++
		}
	}
	return bad
}

func (b *exploreBench) layers(_ *phase, m map[string]float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := float64(len(b.stats))
	var expand, dedup, self time.Duration
	var calls, waves int
	for _, s := range b.stats {
		expand += s.expand
		dedup += s.dedup
		self += s.wall - s.expand - s.dedup
		calls += s.calls
		waves += s.waves
	}
	m["explore.expand_busy_s"] = ratio(expand.Seconds(), n)
	m["explore.dedup_busy_s"] = ratio(dedup.Seconds(), n)
	m["explore.coordinator_self_s"] = ratio(self.Seconds(), n)
	m["explore.expand_calls"] = ratio(float64(calls), n)
	m["explore.waves"] = ratio(float64(waves), n)
	for _, rep := range b.reports {
		m["explore.dedup_hit_ratio"] = ratio(float64(rep.DedupHits), float64(rep.Branches))
		m["explore.segments_per_state"] = ratio(float64(rep.Segments), float64(rep.States))
		break
	}
}

func (b *exploreBench) close() {}
