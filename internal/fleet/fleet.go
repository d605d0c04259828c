// Package fleet is the batched simulation kernel: it steps an array of
// intermittently-powered tags through shared time slices instead of running
// one event loop per rig, which is what makes Table-4-style studies at
// 10k–100k devices practical in a single process.
//
// Equivalence by construction. Each tag is a device.Runner on the same
// Device, Supply, and interpreter objects a sequential core.Rig run would
// use, and the fleet only ever advances it through Runner.Step — the one
// implementation of the charge → execute → brown-out → reboot cycle, which
// RunUntil runs unpaused. Step pauses only between the env calls an
// unpaused run performs, so a batched run of N tags produces
// byte-identical per-tag outcomes to N sequential Rig runs — the golden
// property fleet_test.go checks under -race at multiple worker counts.
//
// Layout. The scheduler's hot state is one array: each tag's clock at its
// last pause. The slice loop scans it — skipping tags that already sit at
// or beyond the boundary without touching their runners — and only enters
// a tag's Runner/Device/CPU working set when the tag actually has cycles
// to run. Cross-device effects (reader contention) are computed
// sequentially at each slice barrier, in tag-index order, so they are
// deterministic at any worker count.
//
// Sharding. Per-slice work fans out over internal/parallel with one item
// per tag; each tag's randomness derives from parallel.ShardSeed(seed, i),
// so results are bit-for-bit identical at any worker count.
package fleet

import (
	"fmt"
	"runtime"

	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/units"
)

// ContentionConfig models an RFID reader time-sharing its carrier: with
// more than Slots tags simultaneously charging, each receives
// Slots/charging of the solo received power. It requires per-tag
// RFHarvester sources and is recomputed at every slice barrier from the
// previous slice's power states, sequentially in tag-index order.
//
// Contention is a fleet-level effect with no sequential-rig equivalent, so
// the golden equivalence property only holds with Slots == 0 (disabled).
type ContentionConfig struct {
	// Slots is the number of tags the reader can energize at full power;
	// 0 disables contention.
	Slots int
}

// Config parameterizes a fleet run.
type Config struct {
	// Tags is the number of devices to simulate.
	Tags int
	// Duration is the simulated run length per tag.
	Duration units.Seconds
	// Slice is the batching granularity: all live tags reach each slice
	// boundary before cross-device effects are evaluated. Defaults to
	// 50 ms. Smaller slices tighten contention feedback; larger slices
	// amortize scheduling overhead.
	Slice units.Seconds
	// Seed is the base seed; tag i derives parallel.ShardSeed(Seed, i).
	Seed int64
	// Quantum, when non-zero, overrides each device's active integration
	// quantum (device.DefaultConfig's 64 cycles). Larger quanta trade
	// supply-integration resolution for speed; at 47 µF even 512 cycles
	// (128 µs) moves the capacitor a few millivolts per step.
	Quantum sim.Cycles
	// SleepQuantum, when non-zero, is forwarded to each device's config:
	// coarser energy integration during low-power waits.
	SleepQuantum sim.Cycles
	// DeferSupply forwards device.Config.DeferSupply: batch sub-quantum
	// supply integration across env calls (monitor/probe-free tags only).
	DeferSupply bool
	// NewProgram builds tag i's firmware (required). Each tag needs its
	// own instance.
	NewProgram func(i int) device.Program
	// NewHarvester builds tag i's energy source; nil uses DefaultHarvester.
	NewHarvester func(i int, seed int64) energy.Harvester
	// Contention optionally couples tags through the reader's carrier.
	Contention ContentionConfig
}

// DefaultHarvester is the fleet's default per-tag energy source: the
// paper's 30 dBm / 915 MHz RF setup with fading noise disabled — noise-free
// supplies have closed-form charge curves, so off phases fast-forward
// analytically — and tag i placed at a deterministic distance in
// [0.6 m, 1.4 m), spreading the fleet across the harvesting range the way a
// real deployment spreads tags across a room.
func DefaultHarvester(i int, seed int64) energy.Harvester {
	h := energy.NewRFHarvester()
	h.Noise = nil
	h.NoiseFrac = 0
	h.Distance = units.Meters(0.6 + 0.8*float64(i%97)/97.0)
	return h
}

// TagResult is one tag's outcome: exactly what a sequential
// Runner.RunFor(duration) on the same device would have returned.
type TagResult struct {
	Result device.RunResult
	// Err is non-nil if the tag's run aborted (e.g. ErrNeverPowered).
	Err error
}

// Result summarizes a fleet run.
type Result struct {
	Tags []TagResult
	// Devices exposes each tag's device so callers can read
	// application-level statistics out of simulated FRAM afterwards.
	Devices []*device.Device
	// AggregateSimSeconds is the total simulated time executed across the
	// fleet (the numerator of the sim-seconds-per-wall-second metric).
	AggregateSimSeconds float64
	// Completed, Reboots, Faults are fleet-wide tallies.
	Completed int
	Reboots   int
	Faults    int
	// BytesPerTag is the approximate heap footprint per tag, measured
	// after construction.
	BytesPerTag float64
}

// fleetState is the batched kernel: one Runner per tag plus the clock
// array the slice loop scans.
type fleetState struct {
	cfg   Config
	tags  []*device.Runner
	harvs []*energy.RFHarvester // nil unless contention applies
	now   []sim.Cycles          // tag clock at last pause; sim.Never once done
}

// Run executes the fleet and returns per-tag outcomes.
func Run(cfg Config) (*Result, error) {
	if cfg.Tags <= 0 {
		return nil, fmt.Errorf("fleet: Tags must be positive")
	}
	if cfg.NewProgram == nil {
		return nil, fmt.Errorf("fleet: NewProgram is required")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("fleet: Duration must be positive")
	}
	if cfg.Slice <= 0 {
		cfg.Slice = units.MilliSeconds(50)
	}
	if cfg.NewHarvester == nil {
		cfg.NewHarvester = DefaultHarvester
	}

	s, memPerTag, err := build(cfg)
	if err != nil {
		return nil, err
	}
	s.run()
	res := s.collect()
	res.BytesPerTag = memPerTag
	return res, nil
}

// build constructs every tag, starts its run, and measures the heap cost
// per tag.
func build(cfg Config) (*fleetState, float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	n := cfg.Tags
	s := &fleetState{
		cfg:   cfg,
		tags:  make([]*device.Runner, n),
		harvs: make([]*energy.RFHarvester, n),
		now:   make([]sim.Cycles, n),
	}

	// Construction is parallel too: each tag's assembly (device, flash,
	// classifier training) is independent and seeded by ShardSeed.
	err := parallel.ForEach(n, func(i int) error {
		seed := parallel.ShardSeed(cfg.Seed, i)
		h := cfg.NewHarvester(i, seed)
		// Mirror device.NewWISP5: WISP 5 supply, harvester reseeded from
		// the tag's seed, plus the fleet's quantum overrides.
		dcfg := device.DefaultConfig()
		dcfg.Seed = seed
		if cfg.Quantum > 0 {
			dcfg.Quantum = cfg.Quantum
		}
		dcfg.SleepQuantum = cfg.SleepQuantum
		dcfg.DeferSupply = cfg.DeferSupply
		if r, ok := h.(energy.Reseeder); ok {
			r.Reseed(seed)
		}
		d := device.New(dcfg, energy.WISP5Supply(h))

		r := device.NewRunner(d, cfg.NewProgram(i))
		if err := r.Flash(); err != nil {
			return fmt.Errorf("fleet: flashing tag %d: %w", i, err)
		}
		// Fresh devices: origin 0, so SimTime is the device clock.
		r.Start(d.Clock.ToCycles(cfg.Duration), 0)
		s.tags[i] = r
		if rf, ok := h.(*energy.RFHarvester); ok {
			s.harvs[i] = rf
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	runtime.GC()
	runtime.ReadMemStats(&m1)
	perTag := float64(0)
	if m1.HeapAlloc > m0.HeapAlloc {
		perTag = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(n)
	}
	return s, perTag, nil
}

// run is the time-sliced outer loop: advance every live tag to the next
// shared boundary, then apply cross-device effects, until all tags reach a
// terminal state.
func (s *fleetState) run() {
	clk := s.tags[0].D.Clock
	deadline := clk.ToCycles(s.cfg.Duration)
	slice := clk.ToCycles(s.cfg.Slice)
	if slice == 0 {
		slice = 1
	}
	s.applyContention()

	for sliceEnd := slice; ; sliceEnd += slice {
		stopAt := sliceEnd
		if sliceEnd >= deadline {
			// Final pass: the shared deadline now bounds every tag, so
			// run each to its terminal outcome exactly as an unsliced
			// Runner would.
			stopAt = sim.Never
		}
		live := 0
		for _, t := range s.now {
			if t != sim.Never {
				live++
			}
		}
		if live == 0 {
			break
		}
		_ = parallel.ForEach(len(s.tags), func(i int) error {
			if s.now[i] < stopAt {
				r := s.tags[i]
				if r.Step(stopAt) {
					s.now[i] = sim.Never
				} else {
					s.now[i] = r.D.Clock.Now()
				}
			}
			return nil
		})
		s.applyContention()
		if stopAt == sim.Never {
			break
		}
	}
}

// applyContention recomputes each tag's share of the reader's carrier from
// the barrier-consistent runner phases: deterministic, sequential, in
// tag-index order.
func (s *fleetState) applyContention() {
	slots := s.cfg.Contention.Slots
	if slots <= 0 {
		return
	}
	charging := 0
	for _, r := range s.tags {
		if r.Charging() {
			charging++
		}
	}
	scale := 1.0
	if charging > slots {
		scale = float64(slots) / float64(charging)
	}
	for _, h := range s.harvs {
		if h != nil {
			h.PowerScale = scale
		}
	}
}

// collect gathers every tag's Runner result and the fleet-wide tallies.
func (s *fleetState) collect() *Result {
	res := &Result{Tags: make([]TagResult, len(s.tags)), Devices: make([]*device.Device, len(s.tags))}
	for i, t := range s.tags {
		r, err := t.Result()
		res.Tags[i] = TagResult{Result: r, Err: err}
		res.Devices[i] = t.D
		res.AggregateSimSeconds += float64(r.SimTime)
		if r.Completed {
			res.Completed++
		}
		res.Reboots += r.Reboots
		res.Faults += r.Faults
	}
	return res
}
