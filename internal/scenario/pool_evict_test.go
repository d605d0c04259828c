package scenario_test

import (
	"bytes"
	"testing"

	"repro/internal/scenario"
)

// busySpec is a cheap templatable family per seed.
func busySpec(seed int64) scenario.Spec {
	return scenario.Spec{App: "busy", Seconds: 0.5, Seed: seed}
}

func runPool(t *testing.T, p *scenario.Pool, spec scenario.Spec) string {
	t.Helper()
	var out bytes.Buffer
	if _, err := p.Run(spec, &out, nil); err != nil {
		t.Fatal(err)
	}
	p.Wait()
	return out.String()
}

// TestPoolEvictsLeastRecentlyUsed: the pool holds at most PoolCap spec
// families however many it serves, evicts the least recently used, and an
// evicted family cold-boots and rebuilds with byte-identical output.
func TestPoolEvictsLeastRecentlyUsed(t *testing.T) {
	p := scenario.NewPool(1)
	golden0 := runPool(t, p, busySpec(1))
	for seed := int64(2); seed <= scenario.PoolCap; seed++ {
		runPool(t, p, busySpec(seed))
	}
	// Full: touching family 1 makes family 2 the least recently used.
	if got := runPool(t, p, busySpec(1)); got != golden0 {
		t.Fatal("warm session diverges from the cold first one")
	}
	runPool(t, p, busySpec(scenario.PoolCap+1))
	if p.Template(busySpec(1)) == nil || p.Template(busySpec(2)) != nil {
		t.Fatal("eviction must pick the least recently used family")
	}

	for seed := int64(scenario.PoolCap + 2); seed <= 40; seed++ {
		runPool(t, p, busySpec(seed))
		if m := p.Metrics(); m.Families > scenario.PoolCap {
			t.Fatalf("pool holds %d families, cap %d", m.Families, scenario.PoolCap)
		}
	}
	m := p.Metrics()
	if m.Families != scenario.PoolCap || m.TemplatesEvicted != 40-scenario.PoolCap {
		t.Fatalf("after 40 families: %+v", m)
	}

	// Lookups of an evicted family are pure: no entry, no eviction.
	if p.Template(busySpec(1)) != nil {
		t.Fatal("family 1 should have been evicted")
	}
	p.Invalidate(busySpec(1))
	if m2 := p.Metrics(); m2.Families != m.Families || m2.TemplatesEvicted != m.TemplatesEvicted {
		t.Fatalf("Template/Invalidate changed the pool: %+v -> %+v", m, m2)
	}

	// The evicted family comes back cold, rebuilds, then serves warm.
	if got := runPool(t, p, busySpec(1)); got != golden0 {
		t.Fatal("cold re-boot of an evicted family diverges")
	}
	if m2 := p.Metrics(); m2.ColdBoots != m.ColdBoots+1 || m2.TemplatesBuilt != m.TemplatesBuilt+1 {
		t.Fatalf("evicted family must cold-boot and rebuild: %+v -> %+v", m, m2)
	}
	if got := runPool(t, p, busySpec(1)); got != golden0 {
		t.Fatal("warm fork of the rebuilt template diverges")
	}
	if m2 := p.Metrics(); m2.WarmForks != m.WarmForks+1 {
		t.Fatalf("rebuilt family must serve warm: %+v -> %+v", m, m2)
	}
}
