package device

import (
	"errors"
	"fmt"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/units"
)

// Program is a firmware image. Flash runs once when the program is loaded
// onto the device (laying out FRAM data structures costs no runtime
// energy, like flashing a real board); Main is the reset-vector entry
// point, re-entered after every reboot with all volatile state cleared.
type Program interface {
	// Name identifies the program in traces and results.
	Name() string
	// Flash lays out the program's memory image on the device.
	Flash(d *Device) error
	// Main executes until power fails (a *PowerFailure panic unwinds it),
	// a memory fault wedges the MCU, or it returns (app complete).
	Main(env *Env)
}

// RunResult summarizes an intermittent execution.
type RunResult struct {
	// Completed is true if Main returned normally at least once.
	Completed bool
	// Reboots counts power-failure restarts.
	Reboots int
	// Faults counts memory-fault wedges.
	Faults int
	// Halted is non-empty if a debugger decision stopped the run.
	Halted string
	// DeadlineHit is true if the simulation deadline expired mid-run.
	DeadlineHit bool
	// SimTime is the total simulated time elapsed.
	SimTime units.Seconds
	// Stats is the device's accumulated statistics.
	Stats Stats
}

func (r RunResult) String() string {
	return fmt.Sprintf("run: completed=%v reboots=%d faults=%d halted=%q deadline=%v t=%s",
		r.Completed, r.Reboots, r.Faults, r.Halted, r.DeadlineHit, r.SimTime)
}

// ErrNeverPowered is returned when the harvester cannot bring the device to
// its turn-on threshold.
var ErrNeverPowered = errors.New("device: harvester never reached turn-on threshold")

// Sliceable is implemented by programs whose execution can pause at a cycle
// limit and resume later with an identical env-call sequence (isa.Program).
// The Runner drives them through ResetCPU/StepUntil, so a time-sliced
// caller can stop them at any boundary. Programs without it run in whole
// bursts: Main executes until it returns or a terminal panic (power
// failure, fault, deadline) unwinds it — the intermittent execution model
// makes those bursts naturally short.
type Sliceable interface {
	// ResetCPU performs the power-on reset Main would start with.
	ResetCPU()
	// StepUntil advances until the program halts (true) or simulated time
	// reaches limit (false, resumable).
	StepUntil(env *Env, limit sim.Cycles) bool
}

// phase is the Runner's position in the intermittent execution cycle.
type phase uint8

const (
	phaseChargeEnter phase = iota // check powered-already, stamp the charge limit
	phaseCharging                 // inside IdleChargeUntil
	phaseRunEnter                 // power-on reset pending
	phaseRunning                  // executing (mid-StepUntil for Sliceable programs)
	phaseBurning                  // wedged MCU burning until brown-out
	phaseDone
)

// Runner drives a Program through the intermittent execution model:
// charge → run → brown-out → reboot → charge → …, until a deadline or a
// terminal condition.
//
// The cycle is a resumable phase machine: Start arms a run, Step advances
// it to a stop cycle, and Result reports it. Step only ever pauses between
// the env calls an unpaused run performs — mid-charge, between instruction
// chains of a Sliceable program, or between burn chunks — so a run split
// at any stop cycles is identical to one Step(sim.Never). RunUntil is
// exactly that single step; internal/fleet interleaves many Runners in
// time slices.
type Runner struct {
	D *Device
	P Program

	// MaxChargeTime bounds one charging phase; if the harvester cannot
	// reach turn-on within it, the run aborts with ErrNeverPowered.
	MaxChargeTime units.Seconds

	sl          Sliceable // P as Sliceable, or nil for burst programs
	env         Env
	phase       phase
	chargeLimit sim.Cycles // absolute limit of the current charging phase
	start       units.Seconds
	res         RunResult
	err         error
}

// NewRunner returns a runner for program p on device d.
func NewRunner(d *Device, p Program) *Runner {
	return &Runner{D: d, P: p, MaxChargeTime: units.Seconds(10)}
}

// Flash loads the program image onto the device.
func (r *Runner) Flash() error { return r.P.Flash(r.D) }

// RunFor executes the program intermittently for the given simulated
// duration. The program must already be flashed.
func (r *Runner) RunFor(d units.Seconds) (RunResult, error) {
	now := r.D.Clock.Now()
	return r.RunUntil(now+r.D.Clock.ToCycles(d), now)
}

// RunUntil is RunFor against an absolute deadline cycle, with SimTime
// reported relative to origin. It exists for warm-started rigs: a rig
// restored from a mid-charge snapshot passes the deadline and origin a
// cold run would have used (origin 0), so the deadline cycle and the
// reported times — and therefore every output byte — match the cold run
// exactly instead of being skewed by the snapshot point.
func (r *Runner) RunUntil(deadline, origin sim.Cycles) (RunResult, error) {
	r.Start(deadline, origin)
	r.Step(sim.Never)
	return r.Result()
}

// Start arms a run against an absolute deadline cycle, with SimTime
// reported relative to origin (see RunUntil). The program must already be
// flashed.
func (r *Runner) Start(deadline, origin sim.Cycles) {
	r.D.SetDeadline(deadline)
	r.sl, _ = r.P.(Sliceable)
	r.env = Env{D: r.D}
	r.phase = phaseChargeEnter
	r.start = r.D.Clock.ToSeconds(origin)
	r.res, r.err = RunResult{}, nil
}

// Step advances the run until the device clock reaches stopAt or the run
// ends, and reports whether it has ended. A charge jump or a burst
// program may carry the clock past stopAt; an unpaused run overshoots
// identically. The deadline is cleared when the run ends.
func (r *Runner) Step(stopAt sim.Cycles) (done bool) {
	for r.phase != phaseDone && r.D.Clock.Now() < stopAt {
		if !r.advance(stopAt) {
			return false
		}
	}
	return r.phase == phaseDone
}

// Charging reports whether the run is in a charging phase or about to
// enter one: the tags an RF reader's carrier is shared among.
func (r *Runner) Charging() bool {
	return r.phase == phaseChargeEnter || r.phase == phaseCharging
}

// Result reports the run; call it once Step has returned true.
func (r *Runner) Result() (RunResult, error) {
	res := r.res
	res.SimTime = units.Seconds(float64(r.D.Clock.Time()) - float64(r.start))
	res.Stats = r.D.Stats()
	return res, r.err
}

// advance performs one phase of the cycle, converting a terminal panic
// into the phase it leads to. It returns false when the phase paused at
// stopAt.
func (r *Runner) advance(stopAt sim.Cycles) (more bool) {
	defer func() {
		if p := recover(); p != nil {
			r.settle(p)
			more = true
		}
	}()
	d := r.D
	switch r.phase {
	case phaseChargeEnter:
		if d.Supply.State() == energy.PowerOn && d.Supply.Voltage() >= d.Supply.VBrownOut {
			r.phase = phaseRunEnter
			return true
		}
		// Stamped once at phase entry: resuming keeps the original limit.
		r.chargeLimit = d.Clock.Now() + d.Clock.ToCycles(r.MaxChargeTime)
		r.phase = phaseCharging
	case phaseCharging:
		powered, exhausted := d.IdleChargeUntil(r.chargeLimit, stopAt)
		switch {
		case powered:
			r.phase = phaseRunEnter
		case exhausted:
			r.err = ErrNeverPowered
			r.finish()
		default:
			return false
		}
	case phaseRunEnter:
		if r.sl != nil {
			r.sl.ResetCPU()
		}
		r.phase = phaseRunning
	case phaseRunning:
		if r.sl != nil {
			if !r.sl.StepUntil(&r.env, stopAt) {
				return false
			}
		} else {
			r.P.Main(&r.env)
		}
		r.res.Completed = true
		r.finish()
	case phaseBurning:
		// The MCU is wedged executing garbage: it burns energy at the
		// active rate until brown-out, then reboots like any power
		// failure. If the corrupt state persists in FRAM, the next cycle
		// wedges again — forever, as in §5.3.1.
		for d.Clock.Now() < stopAt {
			r.env.tick(1024)
		}
		return false
	}
	return true
}

// settle applies the terminal outcome a phase panicked with.
func (r *Runner) settle(p any) {
	switch o := p.(type) {
	case *PowerFailure:
		r.res.Reboots++
		r.D.Reboot()
		r.phase = phaseChargeEnter
	case *MemoryFault:
		r.res.Faults++
		r.phase = phaseBurning
	case *Halted:
		r.res.Halted = o.Reason
		r.finish()
	case *DeadlineReached:
		r.res.DeadlineHit = true
		r.finish()
	default:
		panic(p) // real bug in the simulator or firmware harness
	}
}

// finish ends the run.
func (r *Runner) finish() {
	r.phase = phaseDone
	r.D.ClearDeadline()
}
