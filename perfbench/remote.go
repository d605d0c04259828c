package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tracecodec"
	"repro/internal/wire"
)

// remoteAnswers is what a client types, in turn, at every console a
// linkedlist assert opens. Each command but resume is one timed round
// trip; after resume the target runs on until the next assert.
var remoteAnswers = []string{"vcap", "read 0x4408", "status", "resume"}

// remoteSpec is operation i's session. Out of every five, three run the
// linkedlist with asserts (fast, console-heavy), one printer.s and one
// selfcheck.s (ISA-bound and several times slower), so the median lands
// among linkedlist sessions and the 90th percentile among the printer.s
// ones, away from the boundaries between the modes. The seed rotates the
// pattern and every session gets a fresh simulation seed, so the server's
// warm pool never serves one.
func remoteSpec(seed int64, i int, fw firmware) scenario.Spec {
	spec := scenario.Spec{Seconds: 10, Trace: true, Seed: mix(seed, i)}
	switch (i + int(seed%5+5)) % 5 {
	case 3:
		spec.AsmName, spec.AsmSource = "printer.s", fw.printer
	case 4:
		spec.AsmName, spec.AsmSource = "selfcheck.s", fw.selfcheck
	default:
		spec.App, spec.Assert, spec.Interactive = "linkedlist", true, true
	}
	return spec
}

// answers returns a prompt callback typing remoteAnswers in turn. A
// non-nil rtts receives each command's round trip in µs: from the answer
// leaving the callback to the next prompt asking for one.
func answers(rtts *[]float64) scenario.PromptFunc {
	k := 0
	var sent time.Time
	return func() (string, bool) {
		if rtts != nil && !sent.IsZero() {
			*rtts = append(*rtts, float64(time.Since(sent).Nanoseconds())/1e3)
		}
		line := remoteAnswers[k%len(remoteAnswers)]
		k++
		sent = time.Time{}
		if line != "resume" {
			sent = time.Now()
		}
		return line, true
	}
}

type firmware struct{ printer, selfcheck string }

func loadFirmware() (firmware, error) {
	p, err := os.ReadFile("firmware/printer.s")
	if err != nil {
		return firmware{}, err
	}
	s, err := os.ReadFile("firmware/selfcheck.s")
	if err != nil {
		return firmware{}, err
	}
	return firmware{printer: string(p), selfcheck: string(s)}, nil
}

// node is one in-process server or gateway on a loopback listener.
type node struct {
	addr string
	lis  *spanListener // nil when untraced
	stop func()
	done chan struct{}
}

// listen opens a loopback listener, wrapped for spans when tr is set.
func listen(tier string, tr *tracer) (net.Listener, *spanListener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	if tr == nil {
		return lis, nil, nil
	}
	sl := &spanListener{Listener: lis, tier: tier, tr: tr}
	return sl, sl, nil
}

func startServer(tier string, tr *tracer, cfg server.Config) (*server.Server, *node, error) {
	srv := server.New(cfg)
	n, err := startNode(tier, tr, srv.Serve, srv.Shutdown)
	return srv, n, err
}

// startNode serves on a fresh loopback listener until close.
func startNode(tier string, tr *tracer, serve func(net.Listener) error, shutdown func(context.Context) error) (*node, error) {
	lis, sl, err := listen(tier, tr)
	if err != nil {
		return nil, err
	}
	n := &node{addr: lis.Addr().String(), lis: sl, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		serve(lis)
	}()
	n.stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdown(ctx)
	}
	return n, nil
}

func (n *node) close() {
	n.stop()
	<-n.done
}

type remoteBench struct {
	seed    int64
	fw      firmware
	srv     *server.Server
	node    *node
	clients []*client.Client
	m0      server.Metrics
}

// setupRemote starts one edbd on loopback, dials the clients and runs one
// warm-up session on each.
func setupRemote(seed int64, clients int, tr *tracer) (bench, error) {
	fw, err := loadFirmware()
	if err != nil {
		return nil, err
	}
	srv, n, err := startServer("backend", tr, server.Config{MaxSessions: 16, MaxConns: 64})
	if err != nil {
		return nil, err
	}
	b := &remoteBench{seed: seed, fw: fw, srv: srv, node: n}
	for c := 0; c < clients; c++ {
		cl, err := client.Dial(n.addr, client.Options{Name: "perfbench"})
		if err != nil {
			b.close()
			return nil, err
		}
		b.clients = append(b.clients, cl)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(b.clients))
	for c, cl := range b.clients {
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			// Fixed simulation seeds keep set-up time independent of the
			// workload seed.
			spec := scenario.Spec{App: "linkedlist", Assert: true, Interactive: true, Seconds: 10, Trace: true, Seed: int64(c + 1)}
			_, errs[c] = cl.Run(spec, io.Discard, answers(nil))
		}(c, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up session: %w", err)
		}
	}
	b.m0 = srv.Metrics()
	return b, nil
}

// sessionHash digests a session's output bytes and its trace samples as
// they arrive, so nothing of a finished session stays in memory. It also
// notes when the first output byte arrives.
type sessionHash struct {
	out, trace hash.Hash64
	first      time.Time
	buf        [16]byte
}

func newSessionHash() *sessionHash {
	return &sessionHash{out: fnv.New64a(), trace: fnv.New64a()}
}

func (h *sessionHash) Write(p []byte) (int, error) {
	if h.first.IsZero() && len(p) > 0 {
		h.first = time.Now()
	}
	return h.out.Write(p)
}

func (h *sessionHash) sample(at uint64, v float64) {
	binary.LittleEndian.PutUint64(h.buf[:8], at)
	binary.LittleEndian.PutUint64(h.buf[8:], math.Float64bits(v))
	h.trace.Write(h.buf[:])
}

func (h *sessionHash) sum(st client.Status) uint64 {
	return digest(h.out.Sum64(), h.trace.Sum64(), fmt.Sprintf("%+v", st))
}

// statusOf is the status a server reports for a session that returned res.
func statusOf(res scenario.Result) client.Status {
	return client.Status{Exit: res.ExitCode, Halted: res.Run.Halted, SimCycles: res.SimCycles,
		Commands: res.Commands, ScriptErrors: res.ScriptErrors}
}

func (b *remoteBench) op(ph *phase, c, i int) error {
	cl := b.clients[c]
	spec := remoteSpec(b.seed, i, b.fw)
	h := newSessionHash()
	cl.OnTrace = func(t *wire.Trace) {
		for _, s := range t.Samples {
			h.sample(s.At, s.V)
		}
	}
	var rtts []float64
	t0 := time.Now()
	st, err := cl.Run(spec, h, answers(&rtts))
	end := time.Now()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	ms := float64(end.Sub(t0).Nanoseconds()) / 1e6
	ph.tr.add("client.session", i, t0, end)
	d := h.sum(st)
	ph.add(func(ph *phase) {
		ph.step = append(ph.step, rtts...)
		ph.job = append(ph.job, ms)
		if !h.first.IsZero() {
			ph.first = append(ph.first, float64(h.first.Sub(t0).Nanoseconds())/1e6)
		}
		ph.simSec += float64(st.SimCycles) / sim.DefaultClockHz
		ph.items += float64(st.Commands)
		ph.digest[i] = d
	})
	return nil
}

// verify replays every session in-process with the same answers and
// requires the same output bytes, status and codec-quantized trace.
func (b *remoteBench) verify(ph *phase) int {
	idx := make([]int, 0, len(ph.digest))
	for i := range ph.digest {
		idx = append(idx, i)
	}
	return parallelCount(idx, func(i int) bool {
		h := newSessionHash()
		t0 := time.Now()
		res, err := scenario.Run(remoteSpec(b.seed, i, b.fw), h, answers(nil))
		ph.tr.add("engine.session", i, t0, time.Now())
		if err != nil {
			return false
		}
		if res.Vcap != nil {
			for _, s := range res.Vcap.Samples {
				h.sample(uint64(s.At), tracecodec.Quantize(s.V))
			}
		}
		return h.sum(statusOf(res)) == ph.digest[i]
	})
}

func (b *remoteBench) layers(ph *phase, m map[string]float64) {
	serverLayers(ph, b.srv.Metrics(), b.m0, m)
}

// serverLayers derives the per-layer metrics both session workloads share.
func serverLayers(ph *phase, m1, m0 server.Metrics, m map[string]float64) {
	m["engine.session_ms_p50"] = median(ph.tr.durations("engine.session", time.Millisecond))
	m["backend.session_ms_p50"] = median(ph.tr.durations("backend.session", time.Millisecond))
	m["backend.start_ms_p50"] = median(ph.tr.durations("backend.start", time.Millisecond))
	m["service.overhead_ms_p50"] = median(pairedDiff(ph.tr, "client.session", "engine.session", time.Millisecond))
	sessions := float64(m1.SessionsTotal - m0.SessionsTotal)
	m["tracecodec.bytes_per_sample"] = ratio(float64(m1.TraceBytes-m0.TraceBytes), float64(m1.TraceSamples-m0.TraceSamples))
	m["server.bytes_per_session"] = ratio(float64(m1.BytesStreamed-m0.BytesStreamed+m1.TraceBytes-m0.TraceBytes), sessions)
	warm := float64(m1.WarmForks - m0.WarmForks)
	m["scenario.template_use_ratio"] = ratio(warm, float64(m1.TemplatesBuilt-m0.TemplatesBuilt))
	m["scenario.warm_fork_ratio"] = ratio(warm, sessions)
	m["scenario.spare_pop_ratio"] = ratio(float64(m1.SparePops-m0.SparePops), warm)
}

// pairedDiff returns, for each operation with both spans, a's duration
// minus b's.
func pairedDiff(tr *tracer, a, b string, unit time.Duration) []float64 {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	da, db := map[int]int64{}, map[int]int64{}
	for _, s := range tr.spans {
		switch s.Name {
		case a:
			da[s.Op] = s.End - s.Start
		case b:
			db[s.Op] = s.End - s.Start
		}
	}
	var out []float64
	for op, x := range da {
		if y, ok := db[op]; ok && op >= 0 {
			out = append(out, float64(x-y)/float64(unit))
		}
	}
	return out
}

// parallelCount runs check over idx on nproc goroutines and returns how
// many returned false.
func parallelCount(idx []int, check func(i int) bool) int {
	var mu sync.Mutex
	bad := 0
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workersFor(len(idx)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(idx) {
					mu.Unlock()
					return
				}
				i := idx[next]
				next++
				mu.Unlock()
				if !check(i) {
					mu.Lock()
					bad++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return bad
}

func (b *remoteBench) close() {
	for _, cl := range b.clients {
		cl.Close()
	}
	b.node.close()
}
