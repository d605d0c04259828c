package energy

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// benchDt is one default 64-cycle integration quantum at the 4 MHz clock:
// the step the device takes while the MCU runs.
const benchDt = units.Seconds(64.0 / sim.DefaultClockHz)

// BenchmarkSupplyStep measures one energy-integration step of the WISP 5
// supply behind the noisy RF harvester at 1 m, loaded like the device
// loads it: the active current while powered, none while charging, so the
// store cycles between brown-out and turn-on as in an intermittent run.
func BenchmarkSupplyStep(b *testing.B) {
	s := WISP5Supply(NewRFHarvester())
	s.Cap.SetVoltage(2.0)
	load := units.MilliAmps(1.2)
	st := s.Step(0, benchDt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := units.Amps(0)
		if st == PowerOn {
			cur = load
		}
		st = s.Step(cur, benchDt)
	}
}

// BenchmarkRFHarvesterCurrent measures one harvester current draw: the
// memoized Friis power, the rectifier taper, and the seeded fading jitter.
func BenchmarkRFHarvesterCurrent(b *testing.B) {
	h := NewRFHarvester()
	var sink units.Amps
	for i := 0; i < b.N; i++ {
		sink += h.Current(units.Volts(1.8 + 0.001*float64(i&255)))
	}
	if sink < 0 {
		b.Fatal("negative harvested current")
	}
}
