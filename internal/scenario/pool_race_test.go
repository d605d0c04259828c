package scenario_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// TestPoolConcurrentForkInvalidate hammers one spec family with concurrent
// sessions while another goroutine repeatedly invalidates and reinstalls
// the template and installs templates of PoolCap other families, so LRU
// eviction keeps dropping the hammered family too. Every session must
// still complete with byte-identical output — invalidation and eviction
// only change how a session starts (warm or cold), never what it
// computes. Run under -race this is the satellite coverage for Pool's
// locking; single-threaded tests never caught ordering bugs between Fork,
// Install, Invalidate and eviction.
func TestPoolConcurrentForkInvalidate(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation load")
	}
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 3, Seed: 42, Script: "vcap;halt"}

	var golden bytes.Buffer
	if _, err := scenario.Run(spec, &golden, nil); err != nil {
		t.Fatal(err)
	}
	tmpl, err := scenario.NewTemplate(spec)
	if err != nil {
		t.Fatal(err)
	}

	others := make([]*scenario.Template, scenario.PoolCap)
	for i := range others {
		if others[i], err = scenario.NewTemplate(scenario.Spec{App: "busy", Seconds: 1, Seed: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}

	p := scenario.NewPool(2)
	p.Install(tmpl)

	const sessions = 12
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	outs := make([]bytes.Buffer, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.Run(spec, &outs[i], nil); err != nil {
				errs <- err
			}
		}(i)
	}

	// Churn the template while sessions fork from it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			p.Invalidate(spec)
			if i%2 == 0 {
				p.Install(tmpl)
			}
			_ = p.Template(spec)
			for _, o := range others {
				p.Install(o)
			}
		}
	}()

	wg.Wait()
	<-done
	p.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.TemplatesEvicted == 0 || m.Families > scenario.PoolCap {
		t.Fatalf("churn must evict and stay bounded: %+v", m)
	}
	for i := range outs {
		if outs[i].String() != golden.String() {
			t.Fatalf("session %d diverged under template churn\n--- golden ---\n%s\n--- got ---\n%s",
				i, golden.String(), outs[i].String())
		}
	}
}
