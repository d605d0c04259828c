package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/parallel"
	"repro/internal/units"
)

// fleetConfig is edb-bench -fleet's room: activity-recognition tags
// sampling at 25 Hz for 10 simulated seconds, spread 0.6–2.0 m from the
// reader, with the batched kernel's coarse quanta and deferred supply.
func fleetConfig(seed int64, tags int) fleet.Config {
	return fleet.Config{
		Tags:         tags,
		Duration:     10,
		Seed:         mix(seed, 0),
		Quantum:      2048,
		SleepQuantum: 24576,
		DeferSupply:  true,
		NewProgram:   fleetProgram,
		NewHarvester: roomHarvester,
	}
}

func fleetProgram(int) device.Program {
	return &apps.Activity{Print: apps.NoPrint, SleepBetween: units.MilliSeconds(40)}
}

func roomHarvester(i int, _ int64) energy.Harvester {
	h := energy.NewRFHarvester()
	h.Noise = nil
	h.NoiseFrac = 0
	h.Distance = units.Meters(0.6 + 1.4*float64(i%97)/97.0)
	return h
}

// fleetTags is the room size, a fifth of edb-bench -fleet's. A 10 000-tag
// room peaked at 753 MB, and its host time moved by a third between two
// sets of runs of the same code; a 2 000-tag room peaks near 160 MB.
const fleetTags = 2_000

type fleetBench struct {
	cfg fleet.Config
	tag int // the seed-chosen tag checked against a sequential run

	mu   sync.Mutex
	runs map[int]fleetOut
}

// fleetOut is what one room run must reproduce exactly.
type fleetOut struct {
	completed, reboots, faults int
	tag                        fleet.TagResult
	bytesPerTag                float64
}

// setupFleet runs a room half the size, so the kernel's lazy
// set-up and the first heap growth happen before the window.
func setupFleet(seed int64, _ int, _ *tracer) (bench, error) {
	if _, err := fleet.Run(fleetConfig(seed, fleetTags/2)); err != nil {
		return nil, fmt.Errorf("warm-up room: %w", err)
	}
	return &fleetBench{cfg: fleetConfig(seed, fleetTags), tag: int(mix(seed, 1) % fleetTags), runs: map[int]fleetOut{}}, nil
}

func (b *fleetBench) op(ph *phase, _, i int) error {
	// The room is assembled when the last tag's firmware is built; the
	// simulation starts after that.
	var mu sync.Mutex
	var built time.Time
	cfg := b.cfg
	cfg.NewProgram = func(k int) device.Program {
		p := b.cfg.NewProgram(k)
		mu.Lock()
		if now := time.Now(); now.After(built) {
			built = now
		}
		mu.Unlock()
		return p
	}
	t0 := time.Now()
	res, err := fleet.Run(cfg)
	t1 := time.Now()
	if err != nil {
		return err
	}
	ph.tr.add("fleet.build", i, t0, built)
	ph.tr.add("fleet.run", i, t0, t1)
	ms := float64(t1.Sub(t0).Nanoseconds()) / 1e6
	buildMs := float64(built.Sub(t0).Nanoseconds()) / 1e6
	h := make([]any, 0, len(res.Tags))
	for _, t := range res.Tags {
		h = append(h, t)
	}
	d := digest(h...)
	ph.add(func(ph *phase) {
		ph.job = append(ph.job, ms)
		ph.first = append(ph.first, buildMs)
		// The step is the host time the simulation took per tag.
		ph.step = append(ph.step, 1e3*(ms-buildMs)/float64(b.cfg.Tags))
		ph.simSec += res.AggregateSimSeconds
		ph.items += float64(b.cfg.Tags)
		ph.digest[i] = d
	})
	b.mu.Lock()
	b.runs[i] = fleetOut{completed: res.Completed, reboots: res.Reboots, faults: res.Faults,
		tag: res.Tags[b.tag], bytesPerTag: res.BytesPerTag}
	b.mu.Unlock()
	return nil
}

// verify requires every room run to repeat the fleet tallies exactly and
// the chosen tag to match a sequential run of the same device.
func (b *fleetBench) verify(ph *phase) int {
	want, err := b.sequentialTag()
	b.mu.Lock()
	defer b.mu.Unlock()
	bad := 0
	var ref *fleetOut
	for _, r := range b.runs {
		r := r
		if ref == nil {
			ref = &r
		}
		if err != nil || !reflect.DeepEqual(r.tag, want) ||
			r.completed != ref.completed || r.reboots != ref.reboots || r.faults != ref.faults {
			bad++
		}
	}
	return bad
}

// sequentialTag runs the chosen tag alone on a device.Runner built the way
// fleet.Run builds it. core.Rig has no knobs for the quanta and deferred
// supply the room uses, so the reference assembles the device directly.
func (b *fleetBench) sequentialTag() (fleet.TagResult, error) {
	seed := parallel.ShardSeed(b.cfg.Seed, b.tag)
	h := b.cfg.NewHarvester(b.tag, seed)
	dcfg := device.DefaultConfig()
	dcfg.Seed = seed
	dcfg.Quantum = b.cfg.Quantum
	dcfg.SleepQuantum = b.cfg.SleepQuantum
	dcfg.DeferSupply = b.cfg.DeferSupply
	if r, ok := h.(energy.Reseeder); ok {
		r.Reseed(seed)
	}
	d := device.New(dcfg, energy.WISP5Supply(h))
	r := device.NewRunner(d, b.cfg.NewProgram(b.tag))
	if err := r.Flash(); err != nil {
		return fleet.TagResult{}, err
	}
	res, err := r.RunFor(b.cfg.Duration)
	return fleet.TagResult{Result: res, Err: err}, nil
}

func (b *fleetBench) layers(_ *phase, m map[string]float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, r := range b.runs {
		m["fleet.bytes_per_tag"] = r.bytesPerTag
		m["fleet.reboots_per_tag"] = float64(r.reboots) / float64(b.cfg.Tags)
		break
	}
}

func (b *fleetBench) close() {}
