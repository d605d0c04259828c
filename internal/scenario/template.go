// Warm-start session support: a Template captures a spec's rig at its
// first firmware-quiescent point (mid-charge, before Main ever runs), and
// forks of that template skip the charge simulation entirely. Because the
// snapshot restores every stochastic stream and the forked run shares the
// cold run's absolute deadline, a warm session's output is byte-for-byte
// identical to a cold boot of the same spec — the pool is purely a latency
// optimization, never a semantic one.
package scenario

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/units"
)

// templateWarmup bounds the template's charging phase. It matches the
// runner's default MaxChargeTime so the warm-up trajectory is the one a
// cold run would take.
const templateWarmup = units.Seconds(10)

// Template is a pre-warmed rig image for one spec family: everything that
// shapes the simulation (app, seed, distance, tracing, …) is fixed;
// per-session fields (duration, script, interactivity) are not.
type Template struct {
	spec       Spec // defaulted
	snap       *core.RigSnapshot
	minSeconds float64 // snapshot time; forks need a deadline beyond it
}

// NewTemplate builds and warms a template for the spec. It errors for
// specs that cannot be templated: reader-driven rigs (the reader's
// inventory state machine lives outside the snapshot), rigs that never
// reach turn-on, and specs whose deadline lands before the warm-up point.
func NewTemplate(spec Spec) (*Template, error) {
	spec = spec.withDefaults()
	rig, _, err := buildRig(spec)
	if err != nil {
		return nil, err
	}
	if rig.Reader != nil {
		return nil, fmt.Errorf("scenario: reader specs cannot be templated")
	}
	if spec.Trace {
		// Cold runs enable tracing before the first charge; the template
		// must too, so the snapshot carries the charge-phase samples —
		// only the render window of them, as execute keeps.
		rig.EDB.TraceVcap().Keep = rig.Device.Clock.ToCycles(traceWindow)
	}
	if !rig.Device.IdleCharge(templateWarmup) {
		return nil, fmt.Errorf("scenario: template rig never reached turn-on")
	}
	snap, err := rig.Snapshot()
	if err != nil {
		return nil, err
	}
	t := &Template{
		spec:       spec,
		snap:       snap,
		minSeconds: float64(rig.Device.Clock.ToSeconds(snap.Now())),
	}
	if !t.Usable(spec) {
		return nil, fmt.Errorf("scenario: warm-up (%.3fs) overruns the %gs deadline", t.minSeconds, spec.Seconds)
	}
	return t, nil
}

// Usable reports whether warm forks of this template can serve the spec:
// the simulation-shaping fields must match and the deadline must lie
// strictly past the snapshot point.
func (t *Template) Usable(spec Spec) bool {
	spec = spec.withDefaults()
	return templateKey(spec) == templateKey(t.spec) && spec.Seconds > t.minSeconds
}

// SnapshotBytes returns the size of the template's full memory image.
func (t *Template) SnapshotBytes() int { return t.snap.MemoryBytes() }

// WarmupSeconds returns the simulated time of the template's snapshot
// point. Only deadlines strictly past it can be served warm.
func (t *Template) WarmupSeconds() float64 { return t.minSeconds }

// Fork builds a fresh rig and applies the template snapshot. The returned
// rig is ready for execute() with the cold run's deadline and origin.
func (t *Template) Fork() (*core.Rig, device.Program, error) {
	rig, prog, err := buildRig(t.spec)
	if err != nil {
		return nil, nil, err
	}
	if t.spec.Trace {
		// Enable before Restore so the snapshot's samples are re-adopted.
		rig.EDB.TraceVcap()
	}
	if err := rig.Restore(t.snap); err != nil {
		return nil, nil, err
	}
	return rig, prog, nil
}

// Run executes a warm fork of the template under the given per-session
// spec, producing output byte-identical to Run(spec, out, prompt).
func (t *Template) Run(spec Spec, out io.Writer, prompt PromptFunc) (Result, error) {
	spec = spec.withDefaults()
	if !t.Usable(spec) {
		return Result{}, fmt.Errorf("scenario: template does not cover spec")
	}
	rig, prog, err := t.Fork()
	if err != nil {
		return Result{}, err
	}
	return execute(rig, prog, spec, out, prompt)
}

// templateKey collapses a spec to its simulation-shaping fields. Seconds,
// Script and Interactive are per-session: they change what a session does
// with the rig, not how the rig evolves from cycle 0.
func templateKey(s Spec) string {
	return fmt.Sprintf("%s|%s|%s|%t|%t|%s|%g|%d|%t",
		s.App, s.AsmName, s.AsmSource, s.Assert, s.Guards, s.Print, s.Distance, s.Seed, s.Trace)
}

// PoolCap bounds the spec families a Pool keeps: past it, the
// least-recently-used family is evicted with its template and spares. The
// pool is an optimization, not a correctness requirement — an evicted
// family's next session cold-boots byte-identically and rebuilds.
const PoolCap = 16

// PoolMetrics counts how sessions were served.
type PoolMetrics struct {
	WarmForks          uint64 // sessions served from a template fork
	SparePops          uint64 // …of which came from a pre-forked spare
	ColdBoots          uint64 // sessions simulated from cycle 0
	TemplatesBuilt     uint64
	TemplatesInstalled uint64 // externally built templates adopted via Install
	Untemplatable      uint64 // specs the pool gave up templating
	TemplatesEvicted   uint64 // families LRU-evicted past PoolCap
	Families           int    // spec families currently held (≤ PoolCap)
}

// forkedRig is a pre-built warm fork waiting for a session.
type forkedRig struct {
	rig  *core.Rig
	prog device.Program
}

// poolEntry tracks one template key: the template once built (or the
// decision that the key is untemplatable — a negative cache so reader
// specs don't re-run warm-up attempts), plus pre-forked spares.
type poolEntry struct {
	mu       sync.Mutex
	building bool
	tmpl     *Template // nil until built
	dead     bool      // untemplatable; serve cold forever
	spares   chan *forkedRig

	use int64 // last-use stamp, guarded by Pool.mu
}

// Pool serves scenario sessions, warm-starting them from per-spec
// templates. The first session for a spec cold-boots while a template
// builds in the background; later sessions fork the template, preferring
// a pre-forked spare for near-zero start latency. It holds at most
// PoolCap families, evicting the least recently used.
type Pool struct {
	mu      sync.Mutex
	entries map[string]*poolEntry
	clock   int64 // use-stamp source for LRU eviction
	spares  int
	metrics PoolMetrics

	// wg tracks background template builds and spare refills, so tests
	// and shutdown can wait for quiescence.
	wg sync.WaitGroup
}

// NewPool returns a pool keeping up to spares pre-forked rigs per
// template (0 disables pre-forking but keeps warm template forks).
func NewPool(spares int) *Pool {
	if spares < 0 {
		spares = 0
	}
	return &Pool{entries: make(map[string]*poolEntry), spares: spares}
}

// Run serves one session for the spec, warm when possible, cold
// otherwise. Output is byte-identical either way.
func (p *Pool) Run(spec Spec, out io.Writer, prompt PromptFunc) (Result, error) {
	spec = spec.withDefaults()
	e := p.entry(templateKey(spec))

	e.mu.Lock()
	switch {
	case e.tmpl != nil && e.tmpl.Usable(spec):
		tmpl := e.tmpl
		e.mu.Unlock()
		var f *forkedRig
		select {
		case f = <-e.spares:
			p.count(func(m *PoolMetrics) { m.WarmForks++; m.SparePops++ })
			p.refillAsync(e, tmpl)
		default:
			p.count(func(m *PoolMetrics) { m.WarmForks++ })
		}
		if f == nil {
			rig, prog, err := tmpl.Fork()
			if err != nil {
				return Result{}, err
			}
			f = &forkedRig{rig: rig, prog: prog}
		}
		return execute(f.rig, f.prog, spec, out, prompt)
	case !e.dead && !e.building && e.tmpl == nil:
		// First sighting of this spec family: build the template in the
		// background and serve this session cold.
		e.building = true
		p.wg.Add(1)
		go p.buildTemplate(e, spec)
	}
	e.mu.Unlock()

	p.count(func(m *PoolMetrics) { m.ColdBoots++ })
	return Run(spec, out, prompt)
}

// Wait blocks until background template builds and refills settle —
// deterministic hand-holding for tests and shutdown.
func (p *Pool) Wait() { p.wg.Wait() }

// Metrics returns a snapshot of the pool's counters.
func (p *Pool) Metrics() PoolMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.metrics
	m.Families = len(p.entries)
	return m
}

func (p *Pool) count(f func(*PoolMetrics)) {
	p.mu.Lock()
	f(&p.metrics)
	p.mu.Unlock()
}

// entry returns the key's entry, creating it (and evicting the least
// recently used family past PoolCap) if absent, and marks it used.
func (p *Pool) entry(key string) *poolEntry {
	p.mu.Lock()
	e, ok := p.entries[key]
	var victim *poolEntry
	if !ok {
		if len(p.entries) >= PoolCap {
			var lruKey string
			for k, v := range p.entries {
				if victim == nil || v.use < victim.use {
					lruKey, victim = k, v
				}
			}
			delete(p.entries, lruKey)
			p.metrics.TemplatesEvicted++
		}
		e = &poolEntry{spares: make(chan *forkedRig, p.spares+1)}
		p.entries[key] = e
	}
	p.clock++
	e.use = p.clock
	p.mu.Unlock()
	if victim != nil {
		victim.retire()
	}
	return e
}

// lookup returns the key's entry, or nil; it never creates or touches one.
func (p *Pool) lookup(key string) *poolEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.entries[key]
}

// retire releases an entry removed from the pool: its template and spares
// go now rather than when the last session holding the entry finishes.
// Sessions already forked from it keep running on their own rigs.
func (e *poolEntry) retire() {
	e.mu.Lock()
	e.tmpl = nil
	e.mu.Unlock()
	drainSpares(e)
}

func (p *Pool) buildTemplate(e *poolEntry, spec Spec) {
	defer p.wg.Done()
	tmpl, err := NewTemplate(spec)
	e.mu.Lock()
	e.building = false
	if err != nil {
		e.dead = true
		e.mu.Unlock()
		p.count(func(m *PoolMetrics) { m.Untemplatable++ })
		return
	}
	e.tmpl = tmpl
	e.mu.Unlock()
	p.count(func(m *PoolMetrics) { m.TemplatesBuilt++ })
	for i := 0; i < p.spares; i++ {
		p.refill(e, tmpl)
	}
}

func (p *Pool) refillAsync(e *poolEntry, tmpl *Template) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.refill(e, tmpl)
	}()
}

func (p *Pool) refill(e *poolEntry, tmpl *Template) {
	if len(e.spares) >= p.spares {
		return
	}
	rig, prog, err := tmpl.Fork()
	if err != nil {
		return
	}
	select {
	case e.spares <- &forkedRig{rig: rig, prog: prog}:
	default:
	}
}
