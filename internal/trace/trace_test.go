package trace

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestSeriesWindow(t *testing.T) {
	s := NewSeries("v", "V")
	for i := 0; i < 10; i++ {
		s.Add(sim.Cycles(i*10), float64(i))
	}
	w := s.Window(20, 50)
	if len(w) != 3 || w[0].At != 20 || w[2].At != 40 {
		t.Fatalf("window = %v", w)
	}
	if len(s.Window(1000, 2000)) != 0 {
		t.Fatal("out-of-range window must be empty")
	}
}

func TestSeriesWindowEmptyRange(t *testing.T) {
	s := NewSeries("v", "V")
	for i := 0; i < 10; i++ {
		s.Add(sim.Cycles(i*10), float64(i))
	}
	// An inverted range — what an unclamped "last 150 ms" query of a
	// shorter run computes after unsigned underflow — must not panic.
	if w := s.Window(1001, 1000); len(w) != 0 {
		t.Fatalf("inverted window = %v", w)
	}
	if w := s.Window(30, 30); len(w) != 0 {
		t.Fatalf("empty window = %v", w)
	}
}

// TestSeriesKeepMatchesUnbounded is the retention contract: for any query
// starting inside the horizon, a Series with Keep set returns the same
// Window as one that keeps everything — also after Samples is restored to
// an earlier prefix (a snapshot restore) and the stream resumes.
func TestSeriesKeepMatchesUnbounded(t *testing.T) {
	f := func(seed int64, keepRaw uint16, resume uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		keep := sim.Cycles(keepRaw%500) + 1
		full, kept := NewSeries("v", "V"), NewSeries("v", "V")
		kept.Keep = keep
		var at sim.Cycles
		add := func(n int) {
			for i := 0; i < n; i++ {
				at += sim.Cycles(rng.Intn(20)) // repeated timestamps too
				v := rng.Float64()
				full.Add(at, v)
				kept.Add(at, v)
			}
		}
		check := func() bool {
			var lo sim.Cycles
			if newest := full.Samples[len(full.Samples)-1].At; newest > keep {
				lo = newest - keep
			}
			for q := 0; q < 50; q++ {
				from := lo + sim.Cycles(rng.Intn(int(keep)+1))
				to := from + sim.Cycles(rng.Intn(int(keep)+40))
				a, b := full.Window(from, to), kept.Window(from, to)
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
			}
			return true
		}
		add(1000)
		snapFull := append([]Sample(nil), full.Samples...)
		snapKept := append([]Sample(nil), kept.Samples...)
		snapAt := at
		add(1000)
		if !check() || len(kept.Samples) >= len(full.Samples) {
			return false
		}
		full.Samples = append(full.Samples[:0], snapFull...)
		kept.Samples = append(kept.Samples[:0], snapKept...)
		at = snapAt
		if !check() {
			return false
		}
		add(1 + 8*int(resume))
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSeriesAddKeep measures appending to a series bounded to a
// 1500-sample horizon (150 ms of 100 µs passive-mode samples): in steady
// state compaction reuses the backing array, so Add allocates nothing.
func BenchmarkSeriesAddKeep(b *testing.B) {
	s := NewSeries("Vcap", "V")
	s.Keep = 1500
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(sim.Cycles(i), 2.0)
	}
}

func TestSeriesMinMax(t *testing.T) {
	s := NewSeries("v", "V")
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatal("empty series min/max must be NaN")
	}
	s.Add(0, 3)
	s.Add(1, -2)
	s.Add(2, 7)
	if s.Min() != -2 || s.Max() != 7 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
	if len(s.Values()) != 3 {
		t.Fatal("values length")
	}
}

func TestLogCountFilter(t *testing.T) {
	l := NewLog("ev")
	l.Add(Event{Kind: "a"})
	l.Add(Event{Kind: "b"})
	l.Add(Event{Kind: "a", Arg: 2})
	if l.Count("") != 3 || l.Count("a") != 2 || l.Count("z") != 0 {
		t.Fatal("counts wrong")
	}
	if got := l.Filter("a"); len(got) != 2 || got[1].Arg != 2 {
		t.Fatalf("filter = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if st.N != 8 || st.Mean != 5 {
		t.Fatalf("stats = %+v", st)
	}
	// Sample SD of this classic set is ~2.138.
	if st.SD < 2.13 || st.SD > 2.15 {
		t.Fatalf("sd = %v", st.SD)
	}
	if st.Min != 2 || st.Max != 9 {
		t.Fatalf("min/max = %v/%v", st.Min, st.Max)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Fatal("empty stats")
	}
	one := Summarize([]float64{3})
	if one.SD != 0 {
		t.Fatalf("single-sample SD = %v", one.SD)
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	f := func(values []float64) bool {
		for i, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				values[i] = 0
			}
		}
		if len(values) == 0 {
			return true
		}
		c := NewCDF(values)
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		prev := 0.0
		for _, x := range sorted {
			p := c.P(x)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return c.P(sorted[len(sorted)-1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if c.Quantile(0) != 1 || c.Quantile(1) != 5 {
		t.Fatal("quantile extremes")
	}
	if q := c.Quantile(0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 1, 2})
	pts := c.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0][0] != 1 || math.Abs(pts[0][1]-2.0/3.0) > 1e-12 {
		t.Fatalf("first point = %v", pts[0])
	}
}

func TestRenderASCII(t *testing.T) {
	clock := sim.NewClock(1000)
	s := NewSeries("Vcap", "V")
	for i := 0; i < 100; i++ {
		s.Add(sim.Cycles(i), 1.8+0.6*float64(i%10)/10)
	}
	out := RenderASCII(s, clock, 40, 8)
	if !strings.Contains(out, "Vcap") || !strings.Contains(out, "*") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 { // header + 8 rows + axis
		t.Fatalf("render has %d lines", len(lines))
	}
	if !strings.Contains(RenderASCII(NewSeries("x", "V"), clock, 40, 8), "no samples") {
		t.Fatal("empty render")
	}
}

func TestRenderCDFASCII(t *testing.T) {
	c1 := NewCDF([]float64{1, 2, 3})
	c2 := NewCDF([]float64{4, 5, 6})
	out := RenderCDFASCII([]string{"a", "b"}, []*CDF{c1, c2}, 32, 8)
	if !strings.Contains(out, "a") || !strings.Contains(out, "o") {
		t.Fatalf("cdf render:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	clock := sim.NewClock(1000)
	s := NewSeries("Vcap", "V")
	s.Add(500, 2.4)
	out := CSV(s, clock)
	if !strings.Contains(out, "t_seconds,Vcap_V") || !strings.Contains(out, "0.500000,2.400000") {
		t.Fatalf("csv:\n%s", out)
	}
}

func TestPercentOfStore(t *testing.T) {
	if got := PercentOfStore(units.MicroJoules(1.354), units.MicroJoules(135.4)); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("pct = %v", got)
	}
	if !math.IsNaN(PercentOfStore(1, 0)) {
		t.Fatal("zero store must be NaN")
	}
}

func TestLogLimitRing(t *testing.T) {
	l := NewLog("ring")
	l.Limit = 8
	for i := 0; i < 20; i++ {
		l.Add(Event{Kind: "e", Arg: i})
	}
	if len(l.Events) > 8 {
		t.Fatalf("retained %d > limit", len(l.Events))
	}
	if l.Dropped == 0 {
		t.Fatal("drops must be counted")
	}
	// The newest event is always retained.
	if l.Events[len(l.Events)-1].Arg != 19 {
		t.Fatalf("newest = %d", l.Events[len(l.Events)-1].Arg)
	}
	// Retained events stay in order.
	for i := 1; i < len(l.Events); i++ {
		if l.Events[i].Arg <= l.Events[i-1].Arg {
			t.Fatal("order broken")
		}
	}
}

// recount is the index's oracle: a full scan of the retained events.
func recount(l *Log) map[string]int {
	m := map[string]int{}
	for _, e := range l.Events {
		m[e.Kind]++
	}
	return m
}

// TestLogCountIndexMatchesRecount drives random Add, Count, ring-discard
// and Restore sequences and checks, at random points (so the lazy
// watermark lags by varying amounts when the ring discards), that the
// per-kind index agrees with a full recount for every kind.
func TestLogCountIndexMatchesRecount(t *testing.T) {
	kinds := []string{"gpio:app-pin", "uart", "assert", "watchpoint", "rare"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog("prop")
		l.Limit = rng.Intn(12) // 0 = unbounded; small limits discard often
		type snap struct {
			events  []Event
			dropped uint64
		}
		var snaps []snap
		added := uint64(0)
		check := func(step int) {
			t.Helper()
			want := recount(l)
			for _, k := range kinds {
				if got := l.Count(k); got != want[k] {
					t.Fatalf("seed %d step %d: Count(%q) = %d, recount %d", seed, step, k, got, want[k])
				}
			}
			names := make([]string, 0, len(want))
			for k := range want {
				names = append(names, k)
			}
			sort.Strings(names)
			if got := l.Kinds(); strings.Join(got, ",") != strings.Join(names, ",") {
				t.Fatalf("seed %d step %d: Kinds() = %v, want %v", seed, step, got, names)
			}
			if l.Count("") != len(l.Events) || l.Dropped+uint64(len(l.Events)) != added {
				t.Fatalf("seed %d step %d: %d retained + %d dropped != %d added",
					seed, step, len(l.Events), l.Dropped, added)
			}
		}
		for step := 0; step < 600; step++ {
			switch r := rng.Intn(40); {
			case r < 28:
				k := kinds[rng.Intn(len(kinds)-1)]
				if rng.Intn(16) == 0 {
					k = "rare"
				}
				l.Add(Event{At: sim.Cycles(added), Kind: k})
				added++
			case r < 31:
				l.Count(kinds[rng.Intn(len(kinds))]) // catch the watermark up
			case r < 34:
				snaps = append(snaps, snap{append([]Event(nil), l.Events...), l.Dropped})
			case r < 36:
				if len(snaps) > 0 {
					s := snaps[rng.Intn(len(snaps))]
					l.Restore(s.events, s.dropped)
					added = s.dropped + uint64(len(s.events))
				}
			default:
				check(step)
			}
		}
		check(600)
	}
}

// BenchmarkLogAdd measures appending one event to a bounded log (amortized
// ring discards included) whose index is brought up to date every 4096
// events, as a console typing `status` now and then would.
func BenchmarkLogAdd(b *testing.B) {
	l := NewLog("bench")
	l.Limit = 1 << 16
	kinds := []string{"gpio:app-pin", "gpio:led", "uart", "watchpoint"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Add(Event{At: sim.Cycles(i), Kind: kinds[i&3], Arg: i & 1})
		if i&4095 == 0 {
			l.Count("uart")
		}
	}
}
