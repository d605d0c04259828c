package edb

import (
	"testing"

	"repro/internal/device"
)

// TestGPIOEdgeAllocs pins the I/O monitor's GPIO path at zero allocations
// per edge once the log has grown: the event kind is interned per line.
func TestGPIOEdgeAllocs(t *testing.T) {
	e := New(DefaultConfig())
	const edges = 1000
	edge := device.GPIOEdge{Line: device.LineAppPin, At: 1}
	for i := 0; i < 2*edges; i++ {
		e.onGPIO(edge)
	}
	e.events.Restore(nil, 0) // keeps the grown backing array
	allocs := testing.AllocsPerRun(edges, func() {
		edge.Level = !edge.Level
		e.onGPIO(edge)
	})
	if allocs != 0 {
		t.Fatalf("onGPIO allocates %.2f times per edge, want 0", allocs)
	}
	if got := e.events.Count("gpio:" + device.LineAppPin); got != edges+1 {
		t.Fatalf("logged %d app-pin edges, want %d", got, edges+1)
	}
}
