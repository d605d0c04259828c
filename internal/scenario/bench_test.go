package scenario_test

import (
	"io"
	"testing"

	"repro/internal/scenario"
)

// BenchmarkTracedSession measures one cold 10 s traced session, the unit
// of edbd's remote-session load. B/op is the figure to watch: traced rigs
// keep only the 150 ms render window of Vcap samples, not the whole run.
func BenchmarkTracedSession(b *testing.B) {
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 10, Trace: true, Script: "vcap;status;resume"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Run(spec, io.Discard, nil); err != nil {
			b.Fatal(err)
		}
	}
}
