package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// span is one timed interval at a layer boundary. Op ties it to the
// workload operation that caused it (-1 when the boundary cannot tell).
type span struct {
	Name  string `json:"name"`
	Op    int    `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced phases run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// durations returns the lengths of every span with the name, in unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// spanListener times the protocol exchanges of every connection it
// accepts, from outside the server or gateway it is handed to. The frame
// layout it parses is wire's: type:1, flags:1, length:4 big-endian.
//
//   - <tier>.session: Run read -> Done written
//   - <tier>.start:   Run read -> first Prompt written
//   - <tier>.cmd:     Command/SnapSave/SnapRestore read -> next Prompt or
//     Done written (EOF commands, which only close a console, excluded)
type spanListener struct {
	net.Listener
	tier  string
	tr    *tracer
	bytes atomic.Int64 // bytes read plus written on accepted connections
}

func (l *spanListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &spanConn{Conn: c, l: l}, nil
}

type spanConn struct {
	net.Conn
	l *spanListener

	rdMu sync.Mutex // a connection may be read, and written, from several goroutines
	rd   frameScanner
	wrMu sync.Mutex
	wr   frameScanner

	mu          sync.Mutex
	runAt       time.Time
	cmdAt       time.Time
	firstPrompt bool
}

func (c *spanConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.l.bytes.Add(int64(n))
		c.rdMu.Lock()
		c.rd.feed(p[:n], func(t byte, payload []byte) { c.onRead(t, payload, now) })
		c.rdMu.Unlock()
	}
	return n, err
}

func (c *spanConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		now := time.Now()
		c.l.bytes.Add(int64(n))
		c.wrMu.Lock()
		c.wr.feed(p[:n], func(t byte, _ []byte) { c.onWrite(t, now) })
		c.wrMu.Unlock()
	}
	return n, err
}

func (c *spanConn) onRead(t byte, payload []byte, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch t {
	case wire.TypeRun:
		c.runAt, c.firstPrompt = now, true
	case wire.TypeCommand:
		if m, err := wire.DecodePayload(t, payload); err == nil && !m.(*wire.Command).EOF {
			c.cmdAt = now
		}
	case wire.TypeSnapSave, wire.TypeSnapRestore:
		c.cmdAt = now
	}
}

func (c *spanConn) onWrite(t byte, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t != wire.TypePrompt && t != wire.TypeDone {
		return
	}
	if !c.cmdAt.IsZero() {
		c.l.tr.add(c.l.tier+".cmd", -1, c.cmdAt, now)
		c.cmdAt = time.Time{}
	}
	if t == wire.TypePrompt && c.firstPrompt {
		c.l.tr.add(c.l.tier+".start", -1, c.runAt, now)
		c.firstPrompt = false
	}
	if t == wire.TypeDone && !c.runAt.IsZero() {
		c.l.tr.add(c.l.tier+".session", -1, c.runAt, now)
		c.runAt, c.firstPrompt = time.Time{}, false
	}
}

// frameScanner splits a byte stream into wire frames. It keeps the
// payload only of Command frames, the one type whose body it inspects.
type frameScanner struct {
	hdr     [6]byte
	nhdr    int
	remain  uint32
	typ     byte
	payload []byte
}

func (s *frameScanner) feed(p []byte, frame func(t byte, payload []byte)) {
	for len(p) > 0 {
		if s.nhdr < len(s.hdr) {
			k := copy(s.hdr[s.nhdr:], p)
			s.nhdr += k
			p = p[k:]
			if s.nhdr < len(s.hdr) {
				return
			}
			s.typ = s.hdr[0]
			s.remain = binary.BigEndian.Uint32(s.hdr[2:])
			s.payload = s.payload[:0]
		}
		k := len(p)
		if uint32(k) > s.remain {
			k = int(s.remain)
		}
		if s.typ == wire.TypeCommand {
			s.payload = append(s.payload, p[:k]...)
		}
		s.remain -= uint32(k)
		p = p[k:]
		if s.remain == 0 {
			frame(s.typ, s.payload)
			s.nhdr = 0
		}
	}
}
