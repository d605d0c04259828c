package server_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/tracecodec"
	"repro/internal/wire"
)

// testSpec is the scripted scenario every daemon test runs: the linked-list
// app's keep-alive assert fires within the first simulated second, opening
// a session for the script.
func testSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		App:     "linkedlist",
		Assert:  true,
		Seconds: 5,
		Seed:    seed,
		Script:  "vcap;status;halt",
	}
}

// startServer serves a fresh daemon on a loopback port.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, lis.Addr().String()
}

// localGolden runs the spec in-process and returns its output.
func localGolden(t *testing.T, spec scenario.Spec) (string, scenario.Result) {
	t.Helper()
	var buf bytes.Buffer
	res, err := scenario.Run(spec, &buf, nil)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return buf.String(), res
}

// TestRemoteMatchesLocal is the determinism-over-the-wire guarantee: a
// scripted remote session's console output is byte-identical to the same
// script run locally.
func TestRemoteMatchesLocal(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	spec := testSpec(42)
	golden, res := localGolden(t, spec)

	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	var buf bytes.Buffer
	st, err := cl.Run(spec, &buf, nil)
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if buf.String() != golden {
		t.Fatalf("remote output differs from local:\n--- local ---\n%s\n--- remote ---\n%s", golden, buf.String())
	}
	if st.Exit != res.ExitCode || st.Commands != res.Commands || st.Halted != res.Run.Halted {
		t.Fatalf("status mismatch: remote %+v vs local %+v", st, res)
	}
	if st.SimCycles == 0 {
		t.Fatal("status should report simulated cycles")
	}
}

// TestScriptErrorPropagates: a failing scripted command must surface as a
// non-zero exit through the daemon, so CI can detect failed scripts.
func TestScriptErrorPropagates(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	spec := testSpec(42)
	spec.Script = "bogus-command;halt"

	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	var buf bytes.Buffer
	st, err := cl.Run(spec, &buf, nil)
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if st.Exit != 1 || st.ScriptErrors != 1 {
		t.Fatalf("want exit=1 scriptErrors=1, got %+v", st)
	}
	if !strings.Contains(buf.String(), "error: console: unknown command") {
		t.Fatalf("output should carry the command error, got:\n%s", buf.String())
	}
}

// TestConcurrentSessions64 drives 64 concurrent scripted sessions — all
// connections held open simultaneously — and checks every one produced
// byte-identical output to its local golden, with nothing rejected.
func TestConcurrentSessions64(t *testing.T) {
	const n = 64
	const goldenSeeds = 8
	srv, addr := startServer(t, server.Config{MaxConns: 2 * n, MaxSessions: n})

	goldens := make([]string, goldenSeeds)
	for i := range goldens {
		goldens[i], _ = localGolden(t, testSpec(42+int64(i)))
	}

	// Dial and handshake all clients first so the daemon really holds n
	// concurrent connections.
	clients := make([]*client.Client, n)
	for i := range clients {
		cl, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer cl.Close()
		clients[i] = cl
	}
	if got := srv.Metrics().ConnsOpen; got != n {
		t.Fatalf("want %d open connections, got %d", n, got)
	}

	prev := parallel.SetWorkers(n)
	defer parallel.SetWorkers(prev)
	outs, err := parallel.Map(n, func(i int) (string, error) {
		var buf bytes.Buffer
		st, err := clients[i].Run(testSpec(42+int64(i%goldenSeeds)), &buf, nil)
		if err != nil {
			return "", err
		}
		if st.Exit != 0 {
			t.Errorf("session %d: exit %d", i, st.Exit)
		}
		return buf.String(), nil
	})
	if err != nil {
		t.Fatalf("sessions: %v", err)
	}
	for i, out := range outs {
		if out != goldens[i%goldenSeeds] {
			t.Errorf("session %d output differs from local golden (seed %d)", i, 42+i%goldenSeeds)
		}
	}

	m := srv.Metrics()
	if m.SessionsTotal != n || m.SessionsRejected != 0 || m.ConnsRejected != 0 {
		t.Fatalf("metrics after fan-out: %+v", m)
	}
	if m.SessionsOpen != 0 {
		t.Fatalf("sessions should all have closed, got %d open", m.SessionsOpen)
	}
	if m.CommandsServed != 3*n {
		t.Fatalf("want %d commands served, got %d", 3*n, m.CommandsServed)
	}
	if m.BytesStreamed == 0 || m.SimCycles == 0 {
		t.Fatalf("streaming metrics should be non-zero: %+v", m)
	}
}

// TestGracefulDrain: Shutdown lets in-flight sessions finish and their
// output stays byte-identical; afterwards new connections are refused.
func TestGracefulDrain(t *testing.T) {
	const n = 8
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.New(server.Config{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()
	addr := lis.Addr().String()

	golden, _ := localGolden(t, testSpec(42))

	// Hold the connections open, then race the sessions against Shutdown.
	clients := make([]*client.Client, n)
	for i := range clients {
		cl, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		clients[i] = cl
	}
	var wg sync.WaitGroup
	outs := make([]string, n)
	errs := make([]error, n)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf bytes.Buffer
			_, errs[i] = clients[i].Run(testSpec(42), &buf, nil)
			outs[i] = buf.String()
		}(i)
	}

	// Wait until every Run request has reached the daemon — a drain lets
	// started sessions finish, but (like any server) cannot save requests
	// still in flight on the network.
	for deadline := time.Now().Add(5 * time.Second); srv.Metrics().SessionsTotal < n; {
		if time.Now().After(deadline) {
			t.Fatalf("sessions never started: %+v", srv.Metrics())
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain was not clean: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("session %d failed during drain: %v", i, errs[i])
		}
		if outs[i] != golden {
			t.Errorf("session %d output differs after drain", i)
		}
		clients[i].Close()
	}

	if _, err := client.Dial(addr, client.Options{DialTimeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("dial after drain should fail")
	}
	if got := srv.Metrics().SessionsOpen; got != 0 {
		t.Fatalf("sessions open after drain: %d", got)
	}
}

// TestForcedDrain: a session stuck waiting on its client is force-closed
// when the drain budget expires.
func TestForcedDrain(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.New(server.Config{IdleTimeout: time.Minute})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(lis) }()

	cl, err := client.Dial(lis.Addr().String(), client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	spec := testSpec(42)
	spec.Script = ""
	sess, err := cl.Start(spec, nil) // parked at a prompt, sending nothing
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from forced drain, got %v", err)
	}
	if err := <-serveDone; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if _, err := sess.Exec("vcap"); err == nil {
		t.Fatal("session should be dead after forced drain")
	}
}

// TestVersionMismatch: a client speaking the wrong protocol version is
// rejected with CodeVersion.
func TestVersionMismatch(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := wire.WriteMsg(conn, &wire.Hello{Version: wire.Version + 7, Client: "time-traveler"}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	m, err := wire.ReadMsg(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	werr, ok := m.(*wire.Error)
	if !ok || werr.Code != wire.CodeVersion {
		t.Fatalf("want Error{CodeVersion}, got %#v", m)
	}
}

// TestConnLimit: connections beyond MaxConns are refused with CodeBusy.
func TestConnLimit(t *testing.T) {
	srv, addr := startServer(t, server.Config{MaxConns: 1})
	first, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("first dial: %v", err)
	}
	defer first.Close()

	_, err = client.Dial(addr, client.Options{})
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeBusy {
		t.Fatalf("want Error{CodeBusy}, got %v", err)
	}
	if got := srv.Metrics().ConnsRejected; got != 1 {
		t.Fatalf("want 1 rejected conn, got %d", got)
	}
}

// TestSessionLimit: sessions beyond MaxSessions are refused with CodeBusy
// while the connection itself survives.
func TestSessionLimit(t *testing.T) {
	srv, addr := startServer(t, server.Config{MaxSessions: 1})
	cl1, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial 1: %v", err)
	}
	defer cl1.Close()
	spec := testSpec(42)
	spec.Script = ""
	sess, err := cl1.Start(spec, nil) // hold the only session slot open
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	cl2, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer cl2.Close()
	_, err = cl2.Run(testSpec(42), nil, nil)
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeBusy {
		t.Fatalf("want Error{CodeBusy}, got %v", err)
	}
	if got := srv.Metrics().SessionsRejected; got != 1 {
		t.Fatalf("want 1 rejected session, got %d", got)
	}

	// Release the slot; the same connection can then serve a session.
	if _, err := sess.Exec("halt"); err != nil {
		t.Fatalf("halt: %v", err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := cl2.Run(testSpec(42), nil, nil); err != nil {
		t.Fatalf("run after release: %v", err)
	}
}

// TestIdleReap: a connection that goes quiet is reaped with CodeIdle.
func TestIdleReap(t *testing.T) {
	srv, addr := startServer(t, server.Config{IdleTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := wire.WriteMsg(conn, &wire.Hello{Version: wire.Version, Client: "sleeper"}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := wire.ReadMsg(conn); err != nil { // Welcome
		t.Fatalf("welcome: %v", err)
	}
	// Send nothing; the reaper should cut us loose.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := wire.ReadMsg(conn)
	if err != nil {
		t.Fatalf("expected an idle Error frame, got %v", err)
	}
	werr, ok := m.(*wire.Error)
	if !ok || werr.Code != wire.CodeIdle {
		t.Fatalf("want Error{CodeIdle}, got %#v", m)
	}
	if got := srv.Metrics().IdleReaped; got != 1 {
		t.Fatalf("want 1 reaped conn, got %d", got)
	}
}

// TestSimSecondsLimit: a session asking for more simulated time than the
// server allows is rejected as a bad request.
func TestSimSecondsLimit(t *testing.T) {
	_, addr := startServer(t, server.Config{MaxSimSeconds: 10})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	spec := testSpec(42)
	spec.Seconds = 11
	_, err = cl.Run(spec, nil, nil)
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeBadRequest {
		t.Fatalf("want Error{CodeBadRequest}, got %v", err)
	}
}

// traceSpec asks the scripted scenario to record the Vcap trace window so
// the session has samples to stream.
func traceSpec(seed int64) scenario.Spec {
	spec := testSpec(seed)
	spec.Trace = true
	return spec
}

// collectTrace runs the spec remotely, gathering every streamed sample.
// The OnTrace callback may hand out a reused scratch buffer, so samples are
// copied out.
func collectTrace(t *testing.T, cl *client.Client, spec scenario.Spec) []wire.TracePoint {
	t.Helper()
	var got []wire.TracePoint
	cl.OnTrace = func(tr *wire.Trace) { got = append(got, tr.Samples...) }
	st, err := cl.Run(spec, nil, nil)
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	if st.Exit != 0 {
		t.Fatalf("remote exit %d", st.Exit)
	}
	return got
}

// TestTraceCodecGolden is the end-to-end codec guarantee: a codec-enabled
// remote session decodes to exactly the ADC-quantized local trace, a
// raw-trace session still matches the local trace bit-for-bit, and the
// compressed stream is at least 3x smaller on the wire (measured at the
// server's frame counters).
func TestTraceCodecGolden(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	spec := traceSpec(42)
	_, res := localGolden(t, spec)
	if res.Vcap == nil || len(res.Vcap.Samples) == 0 {
		t.Fatal("local run recorded no trace window")
	}

	// Old-style raw session first: samples must match the local run
	// bit-for-bit (no quantization on the raw path).
	clRaw, err := client.Dial(addr, client.Options{RawTrace: true})
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	defer clRaw.Close()
	if clRaw.TraceZ() {
		t.Fatal("RawTrace client must not negotiate the codec")
	}
	raw := collectTrace(t, clRaw, spec)
	mRaw := srv.Metrics()
	if len(raw) != len(res.Vcap.Samples) {
		t.Fatalf("raw stream has %d samples, local window %d", len(raw), len(res.Vcap.Samples))
	}
	for i, sm := range res.Vcap.Samples {
		if raw[i].At != uint64(sm.At) || raw[i].V != sm.V {
			t.Fatalf("raw sample %d: got (%d, %v), local (%d, %v)", i, raw[i].At, raw[i].V, sm.At, sm.V)
		}
	}

	// Codec session: identical to the local trace after ADC quantization.
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if !cl.TraceZ() {
		t.Fatal("client should negotiate the codec by default")
	}
	dec := collectTrace(t, cl, spec)
	mZ := srv.Metrics()
	if len(dec) != len(res.Vcap.Samples) {
		t.Fatalf("decoded stream has %d samples, local window %d", len(dec), len(res.Vcap.Samples))
	}
	for i, sm := range res.Vcap.Samples {
		if dec[i].At != uint64(sm.At) || dec[i].V != tracecodec.Quantize(sm.V) {
			t.Fatalf("decoded sample %d: got (%d, %v), want (%d, %v)",
				i, dec[i].At, dec[i].V, sm.At, tracecodec.Quantize(sm.V))
		}
	}

	// Bandwidth: the compressed stream must be at least 3x smaller, frame
	// overhead included, for the same sample count.
	rawBytes := mRaw.TraceBytes
	zBytes := mZ.TraceBytes - mRaw.TraceBytes
	if n := mZ.TraceSamples - mRaw.TraceSamples; n != int64(len(dec)) {
		t.Fatalf("server counted %d codec samples, client saw %d", n, len(dec))
	}
	if rawBytes == 0 || zBytes == 0 {
		t.Fatalf("trace byte counters did not move: raw=%d z=%d", rawBytes, zBytes)
	}
	if ratio := float64(rawBytes) / float64(zBytes); ratio < 3 {
		t.Fatalf("wire compression ratio %.2f < 3 (raw %d bytes, compressed %d bytes, %d samples)",
			ratio, rawBytes, zBytes, len(dec))
	}
}

// TestShortTracedSession: a traced session shorter than the 150 ms trace
// window once panicked the session goroutine and with it the whole
// daemon. Its output and trace must match the local run, and the daemon
// must go on serving: the same spec again (now a warm fork) and another.
func TestShortTracedSession(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	short := scenario.Spec{Seconds: 0.1, Trace: true}
	golden, res := localGolden(t, short)
	cl, err := client.Dial(addr, client.Options{RawTrace: true})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		var got []wire.TracePoint
		cl.OnTrace = func(tr *wire.Trace) { got = append(got, tr.Samples...) }
		if _, err := cl.Run(short, &out, nil); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if out.String() != golden {
			t.Fatalf("session %d output differs from local:\n--- local ---\n%s\n--- remote ---\n%s", i, golden, out.String())
		}
		if len(got) != res.Vcap.Len() {
			t.Fatalf("session %d streamed %d samples, local window %d", i, len(got), res.Vcap.Len())
		}
		for j, sm := range res.Vcap.Samples {
			if got[j].At != uint64(sm.At) || got[j].V != sm.V {
				t.Fatalf("session %d sample %d: got (%d, %v), local (%d, %v)", i, j, got[j].At, got[j].V, sm.At, sm.V)
			}
		}
	}
	next := testSpec(42)
	want, _ := localGolden(t, next)
	var out bytes.Buffer
	if _, err := cl.Run(next, &out, nil); err != nil {
		t.Fatalf("next session: %v", err)
	}
	if out.String() != want {
		t.Fatal("next session output differs from local")
	}
}

// TestPoolBoundedMetrics: however many spec families a daemon serves, its
// warm pool holds at most scenario.PoolCap of them, and the metrics say so.
func TestPoolBoundedMetrics(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	for seed := int64(1); seed <= scenario.PoolCap+3; seed++ {
		if _, err := cl.Run(scenario.Spec{App: "busy", Seconds: 0.5, Seed: seed}, nil, nil); err != nil {
			t.Fatalf("session %d: %v", seed, err)
		}
	}
	if m := srv.Metrics(); m.PoolFamilies != scenario.PoolCap || m.TemplatesEvicted != 3 {
		t.Fatalf("pool families %d (cap %d), evicted %d (want 3)", m.PoolFamilies, scenario.PoolCap, m.TemplatesEvicted)
	}
}

// TestDisableTraceZ: a server configured without the codec refuses the
// capability and streams raw chunks even to a codec-capable client.
func TestDisableTraceZ(t *testing.T) {
	_, addr := startServer(t, server.Config{DisableTraceZ: true})
	spec := traceSpec(42)
	_, res := localGolden(t, spec)

	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if cl.TraceZ() {
		t.Fatal("server with DisableTraceZ must not accept the capability")
	}
	raw := collectTrace(t, cl, spec)
	if len(raw) != len(res.Vcap.Samples) {
		t.Fatalf("raw stream has %d samples, local window %d", len(raw), len(res.Vcap.Samples))
	}
	for i, sm := range res.Vcap.Samples {
		if raw[i].At != uint64(sm.At) || raw[i].V != sm.V {
			t.Fatalf("raw sample %d mismatch", i)
		}
	}
}

// TestOldClientRawTrace speaks the version-1 wire protocol with zero flags
// — exactly what a client built before the codec existed sends — and
// checks the new server still streams valid raw Trace chunks and never a
// TraceZ frame.
func TestOldClientRawTrace(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	spec := traceSpec(42)
	_, res := localGolden(t, spec)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))

	if err := wire.WriteMsg(conn, &wire.Hello{Version: wire.Version, Client: "edb/v-old"}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	m, flags, err := wire.ReadMsgFlags(conn)
	if err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if _, ok := m.(*wire.Welcome); !ok {
		t.Fatalf("want Welcome, got %T", m)
	}
	if flags != 0 {
		t.Fatalf("server offered capabilities %#02x to a client that advertised none", flags)
	}

	if err := wire.WriteMsg(conn, &wire.Run{Spec: spec, StreamTrace: true}); err != nil {
		t.Fatalf("run: %v", err)
	}
	var got []wire.TracePoint
	for {
		m, err := wire.ReadMsg(conn)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		switch tm := m.(type) {
		case *wire.Output:
		case *wire.Trace:
			got = append(got, tm.Samples...)
		case *wire.TraceZ:
			t.Fatal("server sent TraceZ to a client that never negotiated it")
		case *wire.Done:
			if len(got) != len(res.Vcap.Samples) {
				t.Fatalf("old client got %d samples, local window %d", len(got), len(res.Vcap.Samples))
			}
			for i, sm := range res.Vcap.Samples {
				if got[i].At != uint64(sm.At) || got[i].V != sm.V {
					t.Fatalf("old-client sample %d mismatch", i)
				}
			}
			return
		default:
			t.Fatalf("unexpected frame %T", m)
		}
	}
}

// TestBadSpecRejected: an unknown app is rejected without assembling a rig.
func TestBadSpecRejected(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	_, err = cl.Run(scenario.Spec{App: "no-such-app"}, nil, nil)
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeBadRequest {
		t.Fatalf("want Error{CodeBadRequest}, got %v", err)
	}
}
