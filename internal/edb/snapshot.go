package edb

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// Snapshot is the debugger-side half of a machine snapshot: EDB's own RNG
// streams (ADC noise), its latest reading, the recorded traces, and the
// event log. Together with device.Snapshot it makes a warm-forked rig
// bit-for-bit indistinguishable from one that cold-booted to the same
// point.
type Snapshot struct {
	RNG           sim.RNGState
	ADCRNG        sim.RNGState
	LastReading   units.Volts
	Vcap          []trace.Sample // nil when Vcap tracing is off
	Vreg          []trace.Sample // nil when Vreg tracing is off
	Events        []trace.Event
	EventsDropped uint64
	WatchHits     []WatchpointHit
	Stats         ActiveStats
}

// Snapshot captures EDB's mutable state. Like device.Snapshot it is only
// meaningful at firmware-quiescent points; open active-mode exchanges
// cannot be captured.
func (e *EDB) Snapshot() (*Snapshot, error) {
	if e.activeDepth > 0 || e.inExchange {
		return nil, fmt.Errorf("edb: cannot snapshot with an active-mode exchange open")
	}
	s := &Snapshot{
		RNG:           e.rng.State(),
		ADCRNG:        e.adc.RNGState(),
		LastReading:   e.lastReading,
		Events:        append([]trace.Event(nil), e.events.Events...),
		EventsDropped: e.events.Dropped,
		WatchHits:     append([]WatchpointHit(nil), e.watchHits...),
		Stats:         e.stats,
	}
	if e.vcapTrace != nil {
		s.Vcap = append([]trace.Sample(nil), e.vcapTrace.Samples...)
	}
	if e.vregTrace != nil {
		s.Vreg = append([]trace.Sample(nil), e.vregTrace.Samples...)
	}
	return s, nil
}

// RestoreSnapshot applies a captured EDB state onto a freshly built and
// attached board (the warm-fork path).
func (e *EDB) RestoreSnapshot(s *Snapshot) {
	e.rng.RestoreState(s.RNG)
	e.adc.RestoreRNGState(s.ADCRNG)
	e.lastReading = s.LastReading
	e.events.Restore(s.Events, s.EventsDropped)
	e.watchHits = append(e.watchHits[:0], s.WatchHits...)
	e.stats = s.Stats
	if e.vcapTrace != nil && s.Vcap != nil {
		e.vcapTrace.Samples = append(e.vcapTrace.Samples[:0], s.Vcap...)
	}
	if e.vregTrace != nil && s.Vreg != nil {
		e.vregTrace.Samples = append(e.vregTrace.Samples[:0], s.Vreg...)
	}
	e.leakValid = false
}

// stateSlot backs the console's snap/restore time-travel commands: full
// memory baselines plus the energy level execution will resume with.
// Restores are O(dirty pages) — the write barrier records exactly which
// pages changed since the snapshot.
type stateSlot struct {
	baselines map[string][]byte
	reading   units.Volts // EDB's ADC view of the resume level
	trueV     units.Volts // ground-truth capacitor voltage at the snapshot
}

// SnapState captures a console snapshot: full memory baselines (dirty
// tracking is armed so a later RestoreState costs O(pages written since
// now)) and the energy level the target will resume with — the pre-session
// saved level when taken inside an interactive session, the live capacitor
// voltage otherwise. It returns the baseline size in bytes.
func (e *EDB) SnapState() (int, error) {
	if e.target == nil {
		return 0, fmt.Errorf("edb: no target attached")
	}
	slot := &stateSlot{baselines: make(map[string][]byte)}
	total := 0
	for _, r := range e.target.Mem.Regions() {
		r.EnableDirtyTracking()
		b := r.Snapshot()
		r.ResetDirty()
		slot.baselines[r.Name] = b
		total += len(b)
	}
	if len(e.savedReadings) > 0 {
		slot.reading = e.savedReadings[0]
		slot.trueV = e.savedTrue[0]
	} else {
		slot.trueV = e.target.Supply.Voltage()
		slot.reading = e.lastReading // no extra ADC draw: keep streams untouched
	}
	e.snapSlot = slot
	return total, nil
}

// RestoreState reverts target memory to the last SnapState baseline —
// copying back only the pages dirtied since — and rewinds the energy level
// the target will resume with. The simulated clock is NOT rewound: like
// the hardware EDB, the debugger can put state back but cannot un-spend
// time. It returns the number of pages reverted and the resume voltage.
func (e *EDB) RestoreState() (int, units.Volts, error) {
	if e.target == nil {
		return 0, 0, fmt.Errorf("edb: no target attached")
	}
	if e.snapSlot == nil {
		return 0, 0, fmt.Errorf("edb: no snapshot taken (use snap first)")
	}
	pages := 0
	for _, r := range e.target.Mem.Regions() {
		base, ok := e.snapSlot.baselines[r.Name]
		if !ok {
			continue
		}
		n, err := r.RevertDirty(base)
		if err != nil {
			return pages, 0, err
		}
		pages += n
	}
	// Rewind the resume energy level. Inside a session the pre-session
	// saved level is what the end-of-session restore loop converges to;
	// outside one, set the capacitor directly.
	if len(e.savedReadings) > 0 {
		e.savedReadings[0] = e.snapSlot.reading
		e.savedTrue[0] = e.snapSlot.trueV
	} else {
		e.target.Supply.Cap.SetVoltage(e.snapSlot.trueV)
	}
	return pages, e.snapSlot.reading, nil
}

// SnapBaselineBytes returns the size of the armed console snapshot, or 0.
func (e *EDB) SnapBaselineBytes() int {
	if e.snapSlot == nil {
		return 0
	}
	n := 0
	for _, b := range e.snapSlot.baselines {
		n += len(b)
	}
	return n
}

// SnapDelta captures the pages dirtied since the last SnapState (or the
// last SnapDelta) as sparse per-region deltas — the O(dirty) capture path
// the checkpoint bench measures. It errors when no snapshot is armed.
func (e *EDB) SnapDelta() ([]*memsim.Delta, error) {
	if e.target == nil {
		return nil, fmt.Errorf("edb: no target attached")
	}
	if e.snapSlot == nil {
		return nil, fmt.Errorf("edb: no snapshot taken (use snap first)")
	}
	var out []*memsim.Delta
	for _, r := range e.target.Mem.Regions() {
		if d := r.DeltaSnapshot(); d != nil {
			out = append(out, d)
			// Keep the armed baseline in sync so RestoreState after a
			// SnapDelta still reverts to a coherent image.
			base := e.snapSlot.baselines[r.Name]
			for _, p := range d.Pages {
				copy(base[p.Off:], p.Data)
			}
		}
	}
	return out, nil
}
