package main

import (
	"bytes"
	"net"
	"regexp"
	"sync"
	"testing"

	"bxsoap/internal/obs"
)

// TestTracedStackIsTransparent runs the same seeded calls through each
// workload's stack untraced and traced and checks that the tracing
// wrappers change nothing the program does: the bytes on every connection,
// the chunks the streaming pipeline moves, and the plan cache's hits,
// misses and compiles. It also checks that the tracer counts every compile
// and lets go of every plan-validation skeleton.
func TestTracedStackIsTransparent(t *testing.T) {
	calls := map[string]int{"rpc-small": 64, "rpc-xml-http": 32, "bulk-stream": 2, "fanin-mux": 200}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			raw := capture(t, w, calls[w.name], nil)
			tr := newTracer()
			traced := capture(t, w, calls[w.name], tr)
			if tr.n.Load() == 0 {
				t.Fatal("traced stack recorded no spans")
			}
			if len(raw.wire) != len(traced.wire) {
				t.Fatalf("conns: untraced %d, traced %d", len(raw.wire), len(traced.wire))
			}
			for i := range raw.wire {
				if !bytes.Equal(raw.wire[i], traced.wire[i]) {
					t.Errorf("conn %d: wire bytes differ from byte %d (untraced %d B, traced %d B)", i, firstDiff(raw.wire[i], traced.wire[i]), len(raw.wire[i]), len(traced.wire[i]))
				}
			}
			for _, c := range []obs.CounterID{obs.StreamChunksSent, obs.StreamChunksReceived,
				obs.TemplateHits, obs.TemplateMisses, obs.TemplateCompiles} {
				if a, b := raw.obs.Counter(c), traced.obs.Counter(c); a != b {
					t.Errorf("%v: untraced %d, traced %d", c, a, b)
				}
			}
			var compiles uint64
			tr.each(func(s *span) {
				if (s.kind == kCliCompile || s.kind == kSrvCompile) && s.flags&fOpen != 0 {
					compiles++
				}
			})
			if want := traced.obs.Counter(obs.TemplateCompiles); compiles != want {
				t.Errorf("tracer saw %d plan compiles, observer counted %d", compiles, want)
			}
			if n := tr.skels.Load(); n != 0 {
				t.Errorf("%d plan-validation skeletons still held after teardown", n)
			}
			if w.name == "bulk-stream" && raw.obs.Counter(obs.StreamChunksSent) <= uint64(2*calls[w.name]) {
				t.Errorf("bulk-stream sent %d chunks for %d calls: not streamed", raw.obs.Counter(obs.StreamChunksSent), calls[w.name])
			}
			if w.name == "fanin-mux" && (raw.obs.Counter(obs.TemplateHits) == 0 || raw.obs.Counter(obs.TemplateCompiles) == 0) {
				t.Errorf("fanin-mux: %d plan hits, %d compiles: plan cache idle", raw.obs.Counter(obs.TemplateHits), raw.obs.Counter(obs.TemplateCompiles))
			}
		})
	}
}

type captured struct {
	wire [][]byte // per conn, in open order: bytes each end wrote, client end first
	obs  *obs.Observer
}

// capture makes n calls from one caller through a fresh stack and records
// every byte written to the network.
func capture(t *testing.T, w workload, n int, tr *tracer) captured {
	t.Helper()
	w.callers = 1
	d := newRunner(w, w.gen(7, 0))
	rec := &recorder{}
	o := obs.New()
	st, _, err := d.setup(stackOpts{tr: tr, tap: rec.tap, obs: o})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := d.call(st, d.next(0), tr); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if err := d.teardown(st); err != nil {
		t.Fatal(err)
	}
	return captured{wire: rec.wire(), obs: o}
}

// recorder taps conns and keeps what each end wrote.
type recorder struct {
	mu    sync.Mutex
	conns []*tapConn
}

func (r *recorder) tap(c net.Conn, server bool) net.Conn {
	tc := &tapConn{Conn: c, server: server}
	r.mu.Lock()
	r.conns = append(r.conns, tc)
	r.mu.Unlock()
	return tc
}

// timingBytes matches what differs between two runs of the same stack
// whatever the wrappers do: the HTTP Date header (wall clock) and Host
// header (the listener's port), and muxbind CREDIT frames (magic, version
// 2, type 2, stream 0, a one-byte varint grant below 128), whose place
// among the DATA frames depends on when the server's writer flushes.
var timingBytes = regexp.MustCompile(`(?m)^(Date|Host): [^\r\n]*\r\n|BX\x02\x02\x00[\x00-\x7f]`)

func (r *recorder) wire() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [][]byte
	for _, server := range []bool{false, true} {
		for _, c := range r.conns {
			if c.server == server {
				c.mu.Lock()
				out = append(out, timingBytes.ReplaceAll(c.buf.Bytes(), nil))
				c.mu.Unlock()
			}
		}
	}
	return out
}

type tapConn struct {
	net.Conn
	server bool
	mu     sync.Mutex
	buf    bytes.Buffer
}

func (c *tapConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.mu.Lock()
	c.buf.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
