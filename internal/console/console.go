// Package console implements EDB's host-side debug console (§4.2): a
// command-line interface for interacting with EDB and, through it, with the
// target. It exposes the command set of Table 1:
//
//	charge|discharge <energy level>
//	break en|dis <id> [energy level]
//	watch en|dis <id>
//	ebreak <energy level>
//	trace {energy,iobus,rfid,watchpoints}
//	read <address>
//	write <address> <value>
//	resume | halt            (inside an interactive session)
//	vcap | status | help
//
// During passive-mode debugging the console delivers traces of energy
// state, watchpoint hits, monitored I/O events, and printf output. During
// active-mode interactive sessions it reports assert failures and
// breakpoint hits and provides commands to inspect target memory.
package console

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/edb"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/trace"
	"repro/internal/units"
)

// Console wraps an EDB board with a textual command interface.
type Console struct {
	e *edb.EDB

	// session is non-nil while an interactive session is open; read/write
	// and resume/halt work only then.
	session *edb.Session

	// out receives asynchronous console output (printf text, assert and
	// session notifications). By default it is the internal buffer drained
	// by Flush; SetOutput injects any io.Writer — a terminal, a network
	// stream — so the console never assumes a local terminal.
	out io.Writer

	// buf backs out when no writer has been injected.
	buf *strings.Builder

	// lastEvent is, per trace stream, the absolute sequence number
	// (Dropped + index) of the first event not yet printed, so it stays
	// valid when the log discards its oldest events.
	lastEvent map[string]uint64

	// explore, when injected (SetExplore), handles the `explore` command —
	// the exhaustive power-failure checker lives above the console's
	// dependency layer, so the scenario wires it in as a closure.
	explore func(args []string) (string, error)
}

// New returns a console bound to an EDB board and registers itself as the
// board's console sink (printf output, assert notifications).
func New(e *edb.EDB) *Console {
	buf := &strings.Builder{}
	c := &Console{e: e, out: buf, buf: buf, lastEvent: make(map[string]uint64)}
	e.SetConsoleSink(c.sink)
	return c
}

// sink delivers one asynchronous console line to the injected writer,
// normalizing the trailing newline.
func (c *Console) sink(s string) {
	io.WriteString(c.out, s)
	if !strings.HasSuffix(s, "\n") {
		io.WriteString(c.out, "\n")
	}
}

// SetOutput routes asynchronous console output to w instead of the internal
// buffer; Flush returns "" from then on. Passing nil restores buffering.
func (c *Console) SetOutput(w io.Writer) {
	if w == nil {
		c.buf = &strings.Builder{}
		c.out = c.buf
		return
	}
	c.out = w
	c.buf = nil
}

// SetExplore injects the handler behind the `explore` command (the
// exhaustive intermittence checker, internal/explore). The console stays
// transport-only: it forwards the raw argument list and prints whatever
// report text comes back.
func (c *Console) SetExplore(fn func(args []string) (string, error)) {
	c.explore = fn
}

// BindSession attaches an open interactive session (called from an
// OnInteractive handler); pass nil when the session closes.
func (c *Console) BindSession(s *edb.Session) { c.session = s }

// Flush returns and clears buffered console output (empty when SetOutput
// has redirected the stream).
func (c *Console) Flush() string {
	if c.buf == nil {
		return ""
	}
	s := c.buf.String()
	c.buf.Reset()
	return s
}

// Exec parses and executes one command line, returning its output.
func (c *Console) Exec(line string) (string, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 {
		return "", nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		return helpText, nil
	case "charge":
		return c.chargeCmd(args, true)
	case "discharge":
		return c.chargeCmd(args, false)
	case "break":
		return c.breakCmd(args)
	case "watch":
		return c.watchCmd(args)
	case "ebreak":
		return c.ebreakCmd(args)
	case "trace":
		return c.traceCmd(args)
	case "read":
		return c.readCmd(args)
	case "write":
		return c.writeCmd(args)
	case "disasm":
		return c.disasmCmd(args)
	case "snap":
		n, err := c.e.SnapState()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("snapshot armed: %d-byte baseline, O(dirty-pages) restore\n", n), nil
	case "restore":
		pages, v, err := c.e.RestoreState()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("restored %d dirty pages; resume level %.3f V\n", pages, float64(v)), nil
	case "explore":
		if c.explore == nil {
			return "", fmt.Errorf("console: explore is not available on this rig")
		}
		return c.explore(args)
	case "vcap":
		return fmt.Sprintf("Vcap = %s (EDB ADC)\n", c.e.LastReading()), nil
	case "status":
		return c.statusCmd()
	case "resume":
		if c.session == nil {
			return "", fmt.Errorf("console: no interactive session open")
		}
		return "resuming target\n", nil
	case "halt":
		if c.session == nil {
			return "", fmt.Errorf("console: no interactive session open")
		}
		c.session.Halt()
		return "target halted (kept on tethered power)\n", nil
	}
	return "", fmt.Errorf("console: unknown command %q (try help)", cmd)
}

const helpText = `EDB debug console commands:
  charge <volts>          pump the target capacitor up to <volts>
  discharge <volts>       bleed the target capacitor down to <volts>
  break en|dis <id> [V]   enable/disable code breakpoint (combined if V given)
  watch en|dis <id>       enable/disable watchpoint tracing for id
  ebreak <volts>          arm an energy breakpoint at <volts>
  trace energy            show energy tracing status / recent level
  trace iobus             print new UART/I2C/GPIO events
  trace rfid              print new RFID messages
  trace watchpoints       print new watchpoint hits
  explore [opts]          exhaustively inject power failures (guards, mode=write|page,
                          depth=N, writes=N, states=N, workers=N, check)
  snap                    arm a state snapshot (memory + resume energy level)
  restore                 revert memory and energy level to the last snap
  read <hexaddr>          read a word of target memory (session only)
  write <hexaddr> <val>   write a word of target memory (session only)
  disasm <hexaddr> [n]    disassemble n instructions of target code (session only)
  vcap                    report EDB's latest Vcap reading
  status                  summarize debugger state
  resume                  leave the interactive session
  halt                    keep the target tethered and stop the run
`

func (c *Console) chargeCmd(args []string, up bool) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("console: usage: charge|discharge <volts>")
	}
	v, err := strconv.ParseFloat(args[0], 64)
	if err != nil || v <= 0 || v > 3.3 {
		return "", fmt.Errorf("console: bad voltage %q", args[0])
	}
	if up {
		c.e.CommandCharge(units.Volts(v))
		return fmt.Sprintf("charging target to %.3f V\n", v), nil
	}
	c.e.CommandDischarge(units.Volts(v))
	return fmt.Sprintf("discharging target to %.3f V\n", v), nil
}

func (c *Console) breakCmd(args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf("console: usage: break en|dis <id> [energy level]")
	}
	on, err := parseEnDis(args[0])
	if err != nil {
		return "", err
	}
	id, err := strconv.Atoi(args[1])
	if err != nil {
		return "", fmt.Errorf("console: bad breakpoint id %q", args[1])
	}
	var level units.Volts
	if len(args) >= 3 {
		f, err := strconv.ParseFloat(args[2], 64)
		if err != nil {
			return "", fmt.Errorf("console: bad energy level %q", args[2])
		}
		level = units.Volts(f)
	}
	c.e.EnableBreak(id, on, level)
	kind := "code"
	if level > 0 {
		kind = "combined"
	}
	state := "disabled"
	if on {
		state = "enabled"
	}
	return fmt.Sprintf("%s breakpoint %d %s\n", kind, id, state), nil
}

func (c *Console) watchCmd(args []string) (string, error) {
	if len(args) != 2 {
		return "", fmt.Errorf("console: usage: watch en|dis <id>")
	}
	on, err := parseEnDis(args[0])
	if err != nil {
		return "", err
	}
	id, err := strconv.Atoi(args[1])
	if err != nil {
		return "", fmt.Errorf("console: bad watchpoint id %q", args[1])
	}
	c.e.EnableWatchpoint(id, on)
	state := "disabled"
	if on {
		state = "enabled"
	}
	return fmt.Sprintf("watchpoint %d %s\n", id, state), nil
}

func (c *Console) ebreakCmd(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("console: usage: ebreak <volts>")
	}
	v, err := strconv.ParseFloat(args[0], 64)
	if err != nil || v <= 0 || v > 3.3 {
		return "", fmt.Errorf("console: bad voltage %q", args[0])
	}
	c.e.AddEnergyBreakpoint(units.Volts(v))
	return fmt.Sprintf("energy breakpoint armed at %.3f V\n", v), nil
}

// traceKinds maps the console's stream names to event-log kinds.
var traceKinds = map[string][]string{
	"iobus":       {"uart", "i2c", "gpio:app-pin", "gpio:led"},
	"rfid":        {"rfid-rx", "rfid-tx"},
	"watchpoints": {"watchpoint"},
}

func (c *Console) traceCmd(args []string) (string, error) {
	if len(args) != 1 {
		return "", fmt.Errorf("console: usage: trace energy|iobus|rfid|watchpoints")
	}
	stream := args[0]
	if stream == "energy" {
		return fmt.Sprintf("energy: Vcap = %s\n", c.e.LastReading()), nil
	}
	kinds, ok := traceKinds[stream]
	if !ok {
		return "", fmt.Errorf("console: unknown trace stream %q", stream)
	}
	wanted := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		wanted[k] = true
	}
	log := c.e.Events()
	evs := log.Events
	// Events discarded before this stream printed them are gone; a
	// position past the retained window (the log was restored to an
	// earlier point) has nothing new to print.
	start := len(evs)
	if seq := c.lastEvent[stream]; seq < log.Dropped {
		start = 0
	} else if seq-log.Dropped < uint64(len(evs)) {
		start = int(seq - log.Dropped)
	}
	var b strings.Builder
	n := 0
	for _, ev := range evs[start:] {
		if wanted[ev.Kind] || wantedPrefix(kinds, ev.Kind) {
			fmt.Fprintf(&b, "%s\n", formatEvent(ev))
			n++
		}
	}
	c.lastEvent[stream] = log.Dropped + uint64(len(evs))
	fmt.Fprintf(&b, "(%d %s events)\n", n, stream)
	return b.String(), nil
}

func wantedPrefix(kinds []string, kind string) bool {
	for _, k := range kinds {
		if strings.HasSuffix(k, ":") && strings.HasPrefix(kind, k) {
			return true
		}
	}
	return false
}

func formatEvent(ev trace.Event) string {
	if ev.Text != "" {
		return fmt.Sprintf("@%d %-12s %s", ev.At, ev.Kind, ev.Text)
	}
	return fmt.Sprintf("@%d %-12s %d", ev.At, ev.Kind, ev.Arg)
}

func (c *Console) readCmd(args []string) (string, error) {
	if c.session == nil {
		return "", fmt.Errorf("console: read requires an interactive session")
	}
	if len(args) != 1 {
		return "", fmt.Errorf("console: usage: read <hexaddr>")
	}
	a, err := parseAddr(args[0])
	if err != nil {
		return "", err
	}
	v, err := c.session.ReadWord(a)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("[%#04x] = %#04x (%d)\n", uint16(a), v, v), nil
}

func (c *Console) writeCmd(args []string) (string, error) {
	if c.session == nil {
		return "", fmt.Errorf("console: write requires an interactive session")
	}
	if len(args) != 2 {
		return "", fmt.Errorf("console: usage: write <hexaddr> <value>")
	}
	a, err := parseAddr(args[0])
	if err != nil {
		return "", err
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(args[1], "0x"), 16, 16)
	if err != nil {
		// Allow decimal too.
		v2, err2 := strconv.ParseUint(args[1], 10, 16)
		if err2 != nil {
			return "", fmt.Errorf("console: bad value %q", args[1])
		}
		v = v2
	}
	if err := c.session.WriteWord(a, uint16(v)); err != nil {
		return "", err
	}
	return fmt.Sprintf("[%#04x] <- %#04x\n", uint16(a), uint16(v)), nil
}

func (c *Console) disasmCmd(args []string) (string, error) {
	if c.session == nil {
		return "", fmt.Errorf("console: disasm requires an interactive session")
	}
	if len(args) < 1 || len(args) > 2 {
		return "", fmt.Errorf("console: usage: disasm <hexaddr> [n]")
	}
	a, err := parseAddr(args[0])
	if err != nil {
		return "", err
	}
	n := 8
	if len(args) == 2 {
		if n, err = strconv.Atoi(args[1]); err != nil || n < 1 || n > 40 {
			return "", fmt.Errorf("console: bad instruction count %q", args[1])
		}
	}
	// Fetch enough words for n instructions (3 words max each) over the
	// debug wire, within one frame.
	bytes := 6 * n
	if bytes > 240 {
		bytes = 240
	}
	raw, err := c.session.ReadBlock(a, bytes)
	if err != nil {
		return "", err
	}
	words := make([]uint16, len(raw)/2)
	for i := range words {
		words[i] = uint16(raw[2*i]) | uint16(raw[2*i+1])<<8
	}
	return isa.Listing(isa.Disassemble(words, uint16(a), n)), nil
}

func (c *Console) statusCmd() (string, error) {
	st := c.e.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "Vcap (ADC): %s\n", c.e.LastReading())
	fmt.Fprintf(&b, "sessions=%d asserts=%d breakpoints=%d guards=%d printfs=%d save/restores=%d\n",
		st.Sessions, st.Asserts, st.BreakHits, st.Guards, st.Printfs, st.SaveRestores)
	log := c.e.Events()
	for _, k := range log.Kinds() {
		fmt.Fprintf(&b, "  events[%s] = %d\n", k, log.Count(k))
	}
	return b.String(), nil
}

func parseEnDis(s string) (bool, error) {
	switch s {
	case "en", "enable", "on":
		return true, nil
	case "dis", "disable", "off":
		return false, nil
	}
	return false, fmt.Errorf("console: expected en|dis, got %q", s)
}

func parseAddr(s string) (memsim.Addr, error) {
	v, err := strconv.ParseUint(strings.TrimPrefix(strings.ToLower(s), "0x"), 16, 16)
	if err != nil {
		return 0, fmt.Errorf("console: bad address %q", s)
	}
	return memsim.Addr(v), nil
}
