package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// The traced run records one span per call at every layer boundary it can
// reach from outside the program: the benchmark's own caller and handler,
// and wrappers around the public seams (Encoding, Template, Binding,
// ServerBinding/Channel, net.Conn/Listener). Spans of one call share its
// call ID, which every wrapper reads out of the bytes or envelope it sees.
// Spans stay in memory and are written out when the run ends.

// kind names a span; kinds[k] gives its name and parent.
type kind uint8

const (
	kCall         kind = iota // the benchmark caller: one Engine.Call / CallStream / Pool.Call
	kCliEncode                // client Encoding/Template encode
	kCliDecode                // client Encoding/Template decode
	kCliCompile               // client CompileTemplate and plan validation steps
	kCliSend                  // client Binding.SendRequest(Stream), sink WriteChunk
	kCliRecv                  // client Binding.ReceiveResponse(Stream), source ReadChunk
	kCliConnWrite             // client net.Conn write carrying the request's first bytes
	kCliConnRead              // client net.Conn read carrying the response's first bytes
	kSrvConnRead              // server net.Conn read carrying the request's first bytes
	kSrvRecv                  // server Channel.ReceiveRequest(Stream), source ReadChunk
	kSrvDecode                // server Encoding/Template decode
	kSrvCompile               // server CompileTemplate and plan validation steps
	kHandler                  // the benchmark handler (dataset verify)
	kSrvEncode                // server Encoding/Template encode
	kSrvSend                  // server Channel.SendResponse(Stream), sink WriteChunk
	kSrvConnWrite             // server net.Conn write carrying the response's first bytes
	numKinds
)

// Parents follow causality: client layers sit under the call, the
// request's arrival on the server conn is caused by the client's conn
// write, and every server layer by that arrival.
var kinds = [numKinds]struct{ name, parent string }{
	kCall:         {"client.call", ""},
	kCliEncode:    {"codec.encode", "client.call"},
	kCliDecode:    {"codec.decode", "client.call"},
	kCliCompile:   {"core.plan_compile", "client.call"},
	kCliSend:      {"binding.send", "client.call"},
	kCliRecv:      {"binding.recv_wait", "client.call"},
	kCliConnWrite: {"netsim.write", "binding.send"},
	kSrvConnRead:  {"netsim.srv_read", "netsim.write"},
	kSrvRecv:      {"binding.srv_recv", "netsim.srv_read"},
	kSrvDecode:    {"codec.srv_decode", "netsim.srv_read"},
	kSrvCompile:   {"core.srv_plan_compile", "netsim.srv_read"},
	kHandler:      {"dataset.verify", "netsim.srv_read"},
	kSrvEncode:    {"codec.srv_encode", "netsim.srv_read"},
	kSrvSend:      {"binding.srv_send", "netsim.srv_read"},
	kSrvConnWrite: {"netsim.srv_write", "binding.srv_send"},
	kCliConnRead:  {"netsim.read", "netsim.srv_write"},
}

// Span flags.
const (
	fTemplate uint8 = 1 << iota // served by a compiled plan
	fChunk                      // one chunk of a streamed message
	fOpen                       // opening a streamed message (before its first chunk); on a compile span, the CompileTemplate call
)

type span struct {
	call  uint64
	start int64 // ns since the tracer's epoch (monotonic)
	end   int64
	bytes int64 // message bytes; pairs on kCall
	inner int64 // ns spent in downstream chunk I/O inside a codec span
	kind  kind
	flags uint8
}

const (
	segShift = 16
	segLen   = 1 << segShift
	maxSegs  = 1024
)

// tracer is a lock-free append-only span store plus the conn counters.
type tracer struct {
	epoch time.Time
	n     atomic.Int64
	segs  [maxSegs]atomic.Pointer[[segLen]span]

	reads, writes, wbytes, writeNs atomic.Int64
	skels                          atomic.Int64 // plan-validation skeletons not yet decoded
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// connCounters snapshots reads, writes, bytes written and write ns.
func (t *tracer) connCounters() [4]int64 {
	return [4]int64{t.reads.Load(), t.writes.Load(), t.wbytes.Load(), t.writeNs.Load()}
}

func (t *tracer) add(s span) {
	i := t.n.Add(1) - 1
	seg := i >> segShift
	if seg >= maxSegs {
		// 64M spans is several million calls, far beyond any run's window.
		return
	}
	p := t.segs[seg].Load()
	if p == nil {
		p = new([segLen]span)
		if !t.segs[seg].CompareAndSwap(nil, p) {
			p = t.segs[seg].Load()
		}
	}
	p[i&(segLen-1)] = s
}

// each visits every recorded span. Call it only after every recording
// goroutine has stopped.
func (t *tracer) each(fn func(*span)) {
	n := t.n.Load()
	if n > maxSegs*segLen {
		n = maxSegs * segLen
	}
	for i := int64(0); i < n; i++ {
		fn(&t.segs[i>>segShift].Load()[i&(segLen-1)])
	}
}

// writeTSV writes the spans of calls first..first+n-1 as call, name,
// parent, start, end, bytes.
func (t *tracer) writeTSV(path string, first, n uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "call\tname\tparent\tstart_ns\tend_ns\tbytes")
	t.each(func(s *span) {
		if s.call < first || s.call >= first+n {
			return
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\n", s.call, kinds[s.kind].name, kinds[s.kind].parent, s.start, s.end, s.bytes)
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

var marker = []byte(idMarker)

// firstID returns the first call ID in b, or 0.
func firstID(b []byte) uint64 {
	i := bytes.Index(b, marker)
	if i < 0 {
		return 0
	}
	return parseID(b[i:])
}

// eachID calls fn for every call ID in b.
func eachID(b []byte, fn func(uint64)) {
	for {
		i := bytes.Index(b, marker)
		if i < 0 {
			return
		}
		if id := parseID(b[i:]); id != 0 {
			fn(id)
		}
		b = b[i+len(idMarker):]
	}
}
