package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
)

// consoleMix is what every console-rtt session types at its prompt: the
// paper's Table-1 commands, and a remote time-travel round trip. "snap"
// and "restore" are sent as SnapSave and SnapRestore frames. It is long
// enough that round trips, not the 2 s simulation around the session,
// take most of a session's time.
var consoleMix = func() []string {
	one := []string{
		"vcap", "read 0x4408", "status",
		"break en 1", "break dis 1", "watch en 1", "watch dis 1",
		"trace energy", "vcap", "status",
		"snap", "write 0x4400 0xBEEF", "read 0x4400", "restore", "read 0x4400",
	}
	var out []string
	for k := 0; k < 30; k++ {
		out = append(out, one...)
	}
	return append(out, "halt")
}()

// consoleSpecs is the size of the repeated spec set. After the first
// session of each, the backend's pool serves every session from a warm
// fork or a pre-forked spare.
const consoleSpecs = 8

// consoleSpec is member k of the set. The set is the same for every
// workload seed, so every seed offers the pool the same families and the
// same amount of simulation; the seed orders the sessions.
func consoleSpec(k int) scenario.Spec {
	return scenario.Spec{App: "linkedlist", Assert: true, Seconds: 2, Seed: int64(k + 1), Interactive: true}
}

// consoleOrder returns the set member operation i uses: each block of
// consoleSpecs operations visits every member once, in a seeded order.
func consoleOrder(seed int64, i int) int {
	perm := rand.New(rand.NewSource(mix(seed, i/consoleSpecs))).Perm(consoleSpecs)
	return perm[i%consoleSpecs]
}

type consoleBench struct {
	seed    int64
	backend *server.Server
	gwA     *cluster.Gateway
	nodes   []*node // backend, gateway B, gateway A
	clients []*client.Client
	m0      server.Metrics
	g0      cluster.Metrics

	gwLis  *spanListener // gateway A's client tier; nil when untraced
	bytes0 int64         // bytes through it before the window
}

// setupConsole brings up the replicated topology: one backend registered
// with two gateways, gateway A streaming its state to its peer B, and
// clients dialling "A,B". It then runs one session of every spec so the
// backend's pool holds a template for each.
func setupConsole(seed int64, clients int, tr *tracer) (bench, error) {
	b := &consoleBench{seed: seed}
	srv, bn, err := startServer("backend", tr, server.Config{MaxSessions: 16, MaxConns: 64})
	if err != nil {
		return nil, err
	}
	b.backend = srv
	b.nodes = append(b.nodes, bn)
	backends := []string{bn.addr}
	_, nB, err := startGateway("gateway-b", nil, cluster.Config{Backends: backends, MaxConns: 64})
	if err != nil {
		b.close()
		return nil, err
	}
	b.nodes = append(b.nodes, nB)
	gwA, nA, err := startGateway("gateway", tr, cluster.Config{Backends: backends, MaxConns: 64, Peer: nB.addr,
		PeerRetry: 50 * time.Millisecond, PeerHeartbeat: 500 * time.Millisecond})
	if err != nil {
		b.close()
		return nil, err
	}
	b.gwA = gwA
	b.nodes = append(b.nodes, nA)
	if err := waitFor(func() bool { return gwA.Metrics().GossipConnects > 0 }); err != nil {
		b.close()
		return nil, fmt.Errorf("gateway peering: %w", err)
	}
	for c := 0; c < clients; c++ {
		cl, err := client.Dial(nA.addr+","+nB.addr, client.Options{Name: "perfbench"})
		if err != nil {
			b.close()
			return nil, err
		}
		b.clients = append(b.clients, cl)
	}
	warm := newPhase(nil)
	for k := 0; k < consoleSpecs; k++ {
		if _, _, err := b.session(b.clients[k%len(b.clients)], consoleSpec(k), warm, -1); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up session: %w", err)
		}
	}
	if err := waitFor(func() bool { return srv.Metrics().TemplatesBuilt >= consoleSpecs }); err != nil {
		b.close()
		return nil, fmt.Errorf("pool warm-up: %w", err)
	}
	b.m0, b.g0 = srv.Metrics(), gwA.Metrics()
	if b.gwLis = nA.lis; b.gwLis != nil {
		b.bytes0 = b.gwLis.bytes.Load()
	}
	return b, nil
}

func startGateway(tier string, tr *tracer, cfg cluster.Config) (*cluster.Gateway, *node, error) {
	gw := cluster.New(cfg)
	n, err := startNode(tier, tr, gw.Serve, gw.Shutdown)
	return gw, n, err
}

// waitFor polls cond for up to ten seconds.
func waitFor(cond func() bool) error {
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if cond() {
			return nil
		}
	}
	return fmt.Errorf("timed out")
}

// session runs one interactive session: Start, the command mix, Close.
// It returns the transcript as the engine wrote it, with the prompt the
// client strips from each reply put back.
func (b *consoleBench) session(cl *client.Client, spec scenario.Spec, ph *phase, i int) (string, client.Status, error) {
	var streamed bytes.Buffer // output before the first prompt and after Close
	t0 := time.Now()
	s, err := cl.Start(spec, &streamed)
	if err != nil {
		return "", client.Status{}, fmt.Errorf("start: %w", err)
	}
	started := time.Now()
	head := streamed.Len()
	var replies strings.Builder
	var us []float64
	for _, line := range consoleMix {
		c0 := time.Now()
		var out string
		switch line {
		case "snap":
			out, err = s.SnapSave()
		case "restore":
			out, err = s.SnapRestore()
		default:
			out, err = s.Exec(line)
		}
		c1 := time.Now()
		if err != nil {
			return "", client.Status{}, fmt.Errorf("%s: %w", line, err)
		}
		ph.tr.add("client.cmd", i, c0, c1)
		us = append(us, float64(c1.Sub(c0).Nanoseconds())/1e3)
		replies.WriteString(out)
		if !s.Closed() {
			replies.WriteString("(edb) ")
		}
	}
	st, err := s.Close()
	if err != nil {
		return "", st, fmt.Errorf("close: %w", err)
	}
	end := time.Now()
	ph.tr.add("client.session", i, t0, end)
	ph.add(func(ph *phase) {
		ph.first = append(ph.first, float64(started.Sub(t0).Nanoseconds())/1e6)
		ph.job = append(ph.job, float64(end.Sub(t0).Nanoseconds())/1e6)
		ph.step = append(ph.step, us...)
	})
	all := streamed.Bytes()
	return string(all[:head]) + replies.String() + string(all[head:]), st, nil
}

func (b *consoleBench) op(ph *phase, c, i int) error {
	spec := consoleSpec(consoleOrder(b.seed, i))
	t, st, err := b.session(b.clients[c], spec, ph, i)
	if err != nil {
		return err
	}
	d := digest(t, fmt.Sprintf("%+v", st))
	ph.add(func(ph *phase) {
		ph.items += float64(len(consoleMix))
		ph.simSec += float64(st.SimCycles) / sim.DefaultClockHz
		ph.digest[i] = d
	})
	return nil
}

// verify replays every session through a local scenario.Pool with the
// same answers and requires the identical transcript and status.
func (b *consoleBench) verify(ph *phase) int {
	pool := scenario.NewPool(2)
	defer pool.Wait()
	idx := make([]int, 0, len(ph.digest))
	for i := range ph.digest {
		idx = append(idx, i)
	}
	return parallelCount(idx, func(i int) bool {
		k := 0
		var buf bytes.Buffer
		t0 := time.Now()
		res, err := pool.Run(consoleSpec(consoleOrder(b.seed, i)), &buf, func() (string, bool) {
			if k == len(consoleMix) {
				return "", false
			}
			k++
			return consoleMix[k-1], true
		})
		ph.tr.add("engine.session", i, t0, time.Now())
		return err == nil && digest(buf.String(), fmt.Sprintf("%+v", statusOf(res))) == ph.digest[i]
	})
}

func (b *consoleBench) layers(ph *phase, m map[string]float64) {
	serverLayers(ph, b.backend.Metrics(), b.m0, m)
	g := b.gwA.Metrics()
	cmds := float64(len(ph.step))
	gw := ph.tr.durations("gateway.cmd", time.Microsecond)
	be := ph.tr.durations("backend.cmd", time.Microsecond)
	m["gateway.cmd_us_p50"] = median(gw)
	m["backend.cmd_us_p50"] = median(be)
	m["backend.cmd_us_p99"] = percentile(be, reportPercentile(99, len(be)))
	m["gateway.self_us_p50"] = median(gw) - median(be)
	m["client.self_us_p50"] = median(ph.step) - median(gw)
	m["gateway.gossip_frames_per_cmd"] = ratio(float64(g.GossipFramesOut-b.g0.GossipFramesOut), cmds)
	m["gateway.frames_relayed_per_cmd"] = ratio(float64(g.FramesRelayed-b.g0.FramesRelayed), cmds)
	m["wire.bytes_per_cmd"] = ratio(float64(b.gwLis.bytes.Load()-b.bytes0), cmds)
}

func (b *consoleBench) close() {
	for _, cl := range b.clients {
		cl.Close()
	}
	for k := len(b.nodes) - 1; k >= 0; k-- {
		b.nodes[k].close()
	}
}
