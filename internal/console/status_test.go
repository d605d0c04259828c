package console_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/console"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/energy"
	"repro/internal/trace"
	"repro/internal/units"
)

// naiveStatus is the reference rendering of `status`: it recounts the
// whole event log on every call, the O(events) way the indexed command
// must match byte for byte.
func naiveStatus(e *edb.EDB) string {
	st := e.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "Vcap (ADC): %s\n", e.LastReading())
	fmt.Fprintf(&b, "sessions=%d asserts=%d breakpoints=%d guards=%d printfs=%d save/restores=%d\n",
		st.Sessions, st.Asserts, st.BreakHits, st.Guards, st.Printfs, st.SaveRestores)
	kinds := map[string]int{}
	for _, ev := range e.Events().Events {
		kinds[ev.Kind]++
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "  events[%s] = %d\n", k, kinds[k])
	}
	return b.String()
}

// TestStatusMatchesNaiveOracle runs a linked-list session with asserts,
// comparing `status` with the naive rendering at every assert prompt and
// at the end, then restores the rig to its pre-boot snapshot (kinds seen
// during the run drop to zero) and replays the run on the restored rig.
// A small log limit repeats it with ring discards throughout.
func TestStatusMatchesNaiveOracle(t *testing.T) {
	for _, limit := range []int{0, 64} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			rig, err := core.NewRig(&apps.LinkedList{WithAssert: true}, core.WithSeed(3),
				core.WithHarvester(energy.NewRFHarvester()))
			if err != nil {
				t.Fatal(err)
			}
			if limit > 0 {
				rig.EDB.Events().Limit = limit
			}
			check := func(where string) string {
				t.Helper()
				got, err := rig.Console.Exec("status")
				if err != nil {
					t.Fatal(err)
				}
				if want := naiveStatus(rig.EDB); got != want {
					t.Fatalf("%s: status\n%s\nwant (naive)\n%s", where, got, want)
				}
				return got
			}
			prompts := 0
			rig.EDB.OnInteractive(func(s *edb.Session) {
				rig.Console.BindSession(s)
				defer rig.Console.BindSession(nil)
				prompts++
				check(fmt.Sprintf("prompt %d", prompts))
				if _, err := rig.Console.Exec("trace iobus"); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("prompt %d after trace", prompts))
			})
			if !rig.Device.IdleCharge(units.Seconds(1)) {
				t.Fatal("rig never reached turn-on")
			}
			snap, err := rig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			early := rig.EDB.Events().Kinds()
			deadline := rig.Device.Clock.ToCycles(units.Seconds(3))
			if _, err := rig.RunUntil(deadline, 0); err != nil {
				t.Fatal(err)
			}
			first := check("end of run")
			if prompts == 0 || rig.EDB.Events().Count("assert") == 0 {
				t.Fatalf("run opened %d prompts and logged %d asserts; the test needs some",
					prompts, rig.EDB.Events().Count("assert"))
			}
			late := rig.EDB.Events().Kinds()

			if err := rig.Restore(snap); err != nil {
				t.Fatal(err)
			}
			check("after restore")
			if got := rig.EDB.Events().Kinds(); strings.Join(got, ",") != strings.Join(early, ",") {
				t.Fatalf("restored kinds %v, want the snapshot's %v", got, early)
			}
			if len(late) <= len(early) {
				t.Fatalf("no kind dropped to zero on restore: %v -> %v", late, early)
			}
			prompts = 0
			if _, err := rig.RunUntil(deadline, 0); err != nil {
				t.Fatal(err)
			}
			if again := check("end of replay"); again != first {
				t.Fatalf("replayed run status\n%s\ndiffers from the first run's\n%s", again, first)
			}
		})
	}
}

// TestTraceStreamSurvivesDiscards types `trace iobus` between batches of
// events into a log small enough to discard between commands. A batch
// (at most 6 events) always fits in what a discard retains (7 of 8), so
// every I/O event must print exactly once, in order, with none skipped or
// repeated.
func TestTraceStreamSurvivesDiscards(t *testing.T) {
	_, e, c := rig(t)
	log := e.Events()
	log.Limit = 8
	next, want := 0, 0
	for _, batch := range []int{3, 3, 1, 2, 3, 3, 2, 1, 3, 3, 3} {
		for i := 0; i < batch; i++ {
			log.Add(trace.Event{At: 1, Kind: "uart", Arg: next})
			next++
			// An unrelated kind shifts the window without printing.
			log.Add(trace.Event{At: 1, Kind: "printf", Text: "x"})
		}
		out, err := c.Exec("trace iobus")
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		for _, l := range lines[:len(lines)-1] {
			var got int
			if _, err := fmt.Sscanf(strings.Fields(l)[2], "%d", &got); err != nil {
				t.Fatalf("bad trace line %q", l)
			}
			if got != want {
				t.Fatalf("batch of %d: printed event %d, want %d\n%s", batch, got, want, out)
			}
			want++
		}
	}
	if want != next {
		t.Fatalf("printed %d of %d events", want, next)
	}
}

// BenchmarkConsoleStatus types `status` into a console whose event log
// holds n events; one new event arrives between commands, as in a live
// session (at 1 Mi the log is full, so ring discards are amortized in).
// The cost must not grow with n.
func BenchmarkConsoleStatus(b *testing.B) {
	kinds := []string{"gpio:app-pin", "gpio:led", "uart", "watchpoint", "printf",
		"assert", "session", "active-begin", "active-end", "charge-done"}
	for _, n := range []int{1 << 10, 100_000, 1 << 20} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			d := device.NewWISP5(&energy.ConstantHarvester{I: units.MilliAmps(1), Voc: 3.3}, 44)
			e := edb.New(edb.DefaultConfig())
			e.Attach(d)
			c := console.New(e)
			log := e.Events()
			for i := log.Count(""); i < n; i++ {
				log.Add(trace.Event{At: 1, Kind: kinds[i%len(kinds)]})
			}
			if _, err := c.Exec("status"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				log.Add(trace.Event{At: 1, Kind: "uart"})
				if _, err := c.Exec("status"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
