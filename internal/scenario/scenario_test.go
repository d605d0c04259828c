package scenario_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestDeterministicOutput: the same spec produces byte-identical output on
// every run — the property the remote daemon extends across the network.
func TestDeterministicOutput(t *testing.T) {
	spec := scenario.Spec{
		App: "linkedlist", Assert: true, Seconds: 5, Seed: 42,
		Script: "vcap;status;halt",
	}
	var a, b bytes.Buffer
	if _, err := scenario.Run(spec, &a, nil); err != nil {
		t.Fatalf("run a: %v", err)
	}
	if _, err := scenario.Run(spec, &b, nil); err != nil {
		t.Fatalf("run b: %v", err)
	}
	if a.String() != b.String() {
		t.Fatal("two runs of the same spec produced different output")
	}
	if !strings.Contains(a.String(), "(edb) vcap") {
		t.Fatalf("script did not run:\n%s", a.String())
	}
}

// TestShortTracedRun: a traced run shorter than the 150 ms render window
// shows the whole run instead of underflowing the window start (which
// panicked, and took edbd down with it), and pool-served warm forks of the
// same spec print the same bytes.
func TestShortTracedRun(t *testing.T) {
	spec := scenario.Spec{Seconds: 0.1, Trace: true}
	var cold bytes.Buffer
	res, err := scenario.Run(spec, &cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cold.String(), "==== energy trace (last 150 ms) ====") {
		t.Fatalf("trace section missing:\n%s", cold.String())
	}
	if n := res.Vcap.Len(); n == 0 || res.Vcap.Samples[0].At != 0 {
		t.Fatalf("window must hold the whole run from cycle 0: %d samples, first %v", n, res.Vcap.Samples)
	}

	p := scenario.NewPool(1)
	for i := 0; i < 3; i++ {
		var out bytes.Buffer
		if _, err := p.Run(spec, &out, nil); err != nil {
			t.Fatal(err)
		}
		p.Wait()
		if out.String() != cold.String() {
			t.Fatalf("pool session %d diverges from the cold run", i)
		}
	}
	if m := p.Metrics(); m.WarmForks != 2 {
		t.Fatalf("later sessions must be warm forks: %+v", m)
	}
}

// TestScriptErrorSetsExitCode: a scripted console command that fails must
// surface as a non-zero exit code instead of being printed and swallowed.
func TestScriptErrorSetsExitCode(t *testing.T) {
	spec := scenario.Spec{
		App: "linkedlist", Assert: true, Seconds: 5, Seed: 42,
		Script: "definitely-not-a-command;halt",
	}
	var buf bytes.Buffer
	res, err := scenario.Run(spec, &buf, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ScriptErrors != 1 {
		t.Fatalf("want 1 script error, got %d", res.ScriptErrors)
	}
	if res.ExitCode != 1 {
		t.Fatalf("script errors must map to exit code 1, got %d", res.ExitCode)
	}
	if !strings.Contains(buf.String(), "error: console: unknown command") {
		t.Fatalf("error text missing:\n%s", buf.String())
	}
	// A clean script exits 0.
	spec.Script = "vcap;halt"
	res, err = scenario.Run(spec, &buf, nil)
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("clean script: exit=%d err=%v", res.ExitCode, err)
	}
}

// TestPromptDrivenSession: a prompt callback drives the session like a
// stdin console.
func TestPromptDrivenSession(t *testing.T) {
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42}
	cmds := []string{"vcap", "halt"}
	i := 0
	prompt := func() (string, bool) {
		if i >= len(cmds) {
			return "", false
		}
		c := cmds[i]
		i++
		return c, true
	}
	var buf bytes.Buffer
	res, err := scenario.Run(spec, &buf, prompt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Commands != 2 {
		t.Fatalf("want 2 commands, got %d", res.Commands)
	}
	if !strings.Contains(buf.String(), "(edb) ") || !strings.Contains(buf.String(), "target halted") {
		t.Fatalf("prompt console output missing:\n%s", buf.String())
	}
}

// TestValidate covers the cheap spec validation edbd relies on.
func TestValidate(t *testing.T) {
	if err := scenario.Validate(scenario.Spec{App: "busy"}); err != nil {
		t.Fatalf("busy should validate: %v", err)
	}
	if err := scenario.Validate(scenario.Spec{AsmSource: "nop\n"}); err != nil {
		t.Fatalf("asm should validate: %v", err)
	}
	if err := scenario.Validate(scenario.Spec{App: "nope"}); err == nil {
		t.Fatal("unknown app must fail validation")
	}
	if err := scenario.Validate(scenario.Spec{App: "activity", Print: "telepathy"}); err == nil {
		t.Fatal("unknown print mode must fail validation")
	}
}

// TestDefaultResume: without a script or prompt the session resumes and
// the run carries on to its deadline or halt.
func TestDefaultResume(t *testing.T) {
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 2, Seed: 42}
	var buf bytes.Buffer
	if _, err := scenario.Run(spec, &buf, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "[edb] no -script or -i; resuming target") {
		t.Fatalf("default resume message missing:\n%s", buf.String())
	}
}
