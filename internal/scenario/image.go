// Template images: a Template serialized into a portable byte blob, so the
// cluster tier can ship a spec family's warm-start image between backends
// once and replay-migrate any number of sessions against it. gob is the
// codec — every snapshot struct keeps its fields exported precisely so the
// stdlib encoder works without a schema of its own.
package scenario

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
)

// TemplateKey collapses a spec to its simulation-shaping fields (Seconds,
// Script and Interactive are per-session). Two specs with equal keys can be
// served from the same template; this is the cluster placement key.
func TemplateKey(s Spec) string { return templateKey(s.withDefaults()) }

// SpecHash is the 64-bit FNV-1a of TemplateKey(s) — the compact form used
// on the wire for placement and image-cache lookups. Collisions are
// tolerable there: the full spec always rides along and is re-verified
// before a template is reused.
func SpecHash(s Spec) uint64 {
	h := fnv.New64a()
	h.Write([]byte(TemplateKey(s)))
	return h.Sum64()
}

// templateImage is the gob envelope for a serialized Template.
type templateImage struct {
	Spec       Spec
	MinSeconds float64
	Snap       *core.RigSnapshot
}

// Marshal serializes the template into a self-contained image. The image
// is deterministic for a given template and portable across processes of
// the same build.
func (t *Template) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(templateImage{
		Spec:       t.spec,
		MinSeconds: t.minSeconds,
		Snap:       t.snap,
	}); err != nil {
		return nil, fmt.Errorf("scenario: marshal template: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalTemplate reconstitutes a template from a Marshal image. Forks of
// the result are byte-identical to forks of the original: the snapshot
// carries every stochastic stream, and spec defaulting already happened
// before the original was built.
func UnmarshalTemplate(img []byte) (*Template, error) {
	var ti templateImage
	if err := gob.NewDecoder(bytes.NewReader(img)).Decode(&ti); err != nil {
		return nil, fmt.Errorf("scenario: unmarshal template: %w", err)
	}
	if ti.Snap == nil || ti.Snap.Device == nil {
		return nil, fmt.Errorf("scenario: template image has no snapshot")
	}
	return &Template{spec: ti.Spec, snap: ti.Snap, minSeconds: ti.MinSeconds}, nil
}

// Spec returns the (defaulted) spec family the template serves.
func (t *Template) Spec() Spec { return t.spec }

// Install registers an externally built template (typically one received
// as a migration image) under its spec family, replacing any existing
// entry. Pending spares for the family are dropped; sessions in flight on
// the old template are unaffected.
func (p *Pool) Install(t *Template) {
	e := p.entry(templateKey(t.spec))
	e.mu.Lock()
	e.tmpl = t
	e.dead = false
	e.mu.Unlock()
	drainSpares(e)
	p.count(func(m *PoolMetrics) { m.TemplatesInstalled++ })
}

// Template returns the pool's template for the spec family, or nil if none
// has been built yet. It is a pure lookup: it never triggers a build or
// makes room for the family.
func (p *Pool) Template(spec Spec) *Template {
	e := p.lookup(templateKey(spec.withDefaults()))
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tmpl
}

// Invalidate drops the spec family from the pool with its template and
// pre-forked spares. The next session cold-boots and rebuilds; forks
// already handed out keep running. Negative "untemplatable" verdicts go
// too, so the family gets a fresh templating attempt.
func (p *Pool) Invalidate(spec Spec) {
	key := templateKey(spec.withDefaults())
	p.mu.Lock()
	e := p.entries[key]
	delete(p.entries, key)
	p.mu.Unlock()
	if e != nil {
		e.retire()
	}
}

func drainSpares(e *poolEntry) {
	for {
		select {
		case <-e.spares:
		default:
			return
		}
	}
}
