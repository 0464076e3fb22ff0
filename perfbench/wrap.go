package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/shape"
)

// Tracing wrappers for the public seams. Each one forwards every optional
// face the core type-asserts for (StreamEncoding, TemplateCompiler and
// Template, StreamBinding, StreamChannel, Poisoned) and keeps Name and
// ContentType unchanged, so a traced stack takes the same code paths and
// puts the same bytes on the wire as an untraced one (stack_test.go).

// rec adds a span measured as [t0, t1].
func (t *tracer) rec(k kind, call uint64, t0, t1 int64, bytes int, flags uint8) {
	t.add(span{call: call, start: t0, end: t1, bytes: int64(bytes), kind: k, flags: flags})
}

// side selects the span kinds of one end of the exchange.
type side struct{ encode, decode, compile, send, recv kind }

var (
	clientSide = side{kCliEncode, kCliDecode, kCliCompile, kCliSend, kCliRecv}
	serverSide = side{kSrvEncode, kSrvDecode, kSrvCompile, kSrvSend, kSrvRecv}
)

// fullEncoding is what both shipped encodings implement.
type fullEncoding interface {
	core.StreamEncoding
	core.TemplateCompiler
}

// tEncoding wraps an encoding policy with encode, decode and compile spans.
//
// The plan cache compiles a template from a message's document, encodes
// that same document into a skeleton, encodes the skeleton again through
// the fresh template, decodes the skeleton, and matches it against the
// template, stopping at the first step that fails. Each of those steps is
// recorded as a compile span (the CompileTemplate one flagged fOpen, one
// per compile), not as a message encode or decode.
type tEncoding[E fullEncoding] struct {
	inner E
	tr    *tracer
	side  side
	// pending maps a document being compiled to its template until the
	// skeleton encode; that encode always follows a successful compile.
	pending sync.Map // *bxdm.Document → *tTemplate[E]
	// skels marks a skeleton's first byte until its validation decode, or
	// until the template's own encode of it mismatches and validation
	// stops there.
	skels sync.Map // *byte → struct{}
}

func traceEncoding[E fullEncoding](tr *tracer, enc E, s side) *tEncoding[E] {
	return &tEncoding[E]{inner: enc, tr: tr, side: s}
}

func (e *tEncoding[E]) Name() string        { return e.inner.Name() }
func (e *tEncoding[E]) ContentType() string { return e.inner.ContentType() }

func (e *tEncoding[E]) Encode(w io.Writer, doc *bxdm.Document) error { return e.inner.Encode(w, doc) }

func (e *tEncoding[E]) DecodeFrom(r io.Reader, size int64) (*bxdm.Document, error) {
	return e.inner.DecodeFrom(r, size)
}

func (e *tEncoding[E]) AppendEncode(dst []byte, doc *bxdm.Document) ([]byte, error) {
	tt, skeleton := e.pending.LoadAndDelete(doc)
	t0 := e.tr.now()
	out, err := e.inner.AppendEncode(dst, doc)
	t1 := e.tr.now()
	if skeleton {
		t := tt.(*tTemplate[E])
		e.tr.rec(e.side.compile, t.id, t0, t1, len(out)-len(dst), 0)
		if err == nil && len(out) > len(dst) {
			t.skel = out[len(dst):]
			e.skels.Store(&t.skel[0], struct{}{})
			e.tr.skels.Add(1)
		}
		return out, err
	}
	if err == nil {
		b := out[len(dst):]
		e.tr.rec(e.side.encode, firstID(b), t0, t1, len(b), 0)
	}
	return out, err
}

// dropSkel forgets a skeleton whose validation decode will not come.
func (e *tEncoding[E]) dropSkel(skel []byte) {
	if _, ok := e.skels.LoadAndDelete(&skel[0]); ok {
		e.tr.skels.Add(-1)
	}
}

func (e *tEncoding[E]) Decode(data []byte) (*bxdm.Document, error) {
	k := e.side.decode
	if len(data) > 0 {
		if _, ok := e.skels.LoadAndDelete(&data[0]); ok {
			e.tr.skels.Add(-1)
			k = e.side.compile
		}
	}
	t0 := e.tr.now()
	doc, err := e.inner.Decode(data)
	t1 := e.tr.now()
	e.tr.rec(k, firstID(data), t0, t1, len(data), 0)
	return doc, err
}

func (e *tEncoding[E]) EncodeChunks(doc *bxdm.Document, chunkBytes int, sink core.ChunkSink) error {
	cs := &codecSink{sink: sink, tr: e.tr}
	t0 := e.tr.now()
	err := e.inner.EncodeChunks(doc, chunkBytes, cs)
	t1 := e.tr.now()
	e.tr.add(span{call: cs.id, start: t0, end: t1, bytes: cs.bytes, inner: cs.ns, kind: e.side.encode})
	return err
}

func (e *tEncoding[E]) DecodeChunks(src core.ChunkSource) (*bxdm.Document, error) {
	cs := &codecSource{src: src, tr: e.tr}
	t0 := e.tr.now()
	doc, err := e.inner.DecodeChunks(cs)
	t1 := e.tr.now()
	e.tr.add(span{call: cs.id, start: t0, end: t1, bytes: cs.bytes, inner: cs.ns, kind: e.side.decode})
	return doc, err
}

func (e *tEncoding[E]) CompileTemplate(doc *bxdm.Document) (core.Template, error) {
	t0 := e.tr.now()
	tmpl, err := e.inner.CompileTemplate(doc)
	t1 := e.tr.now()
	id := docID(doc)
	e.tr.rec(e.side.compile, id, t0, t1, 0, fOpen)
	if err != nil {
		return nil, err
	}
	t := &tTemplate[E]{inner: tmpl, enc: e, id: id}
	e.pending.Store(doc, t)
	return t, nil
}

// docID is the call ID in a document's envelope header (0 when absent).
func docID(doc *bxdm.Document) uint64 {
	env, err := core.EnvelopeFromDocument(doc)
	if err != nil {
		return 0
	}
	return envelopeID(env)
}

// tTemplate wraps a compiled plan. Its first AppendEncode and first Match
// are the plan cache's validation of it and are recorded as compile spans;
// later ones encode and decode messages.
type tTemplate[E fullEncoding] struct {
	inner              core.Template
	enc                *tEncoding[E]
	id                 uint64 // call whose message the plan was compiled from
	skel               []byte // skeleton encode output, until validated
	encSeen, matchSeen atomic.Bool
}

func (t *tTemplate[E]) AppendEncode(dst []byte, vars []shape.Var) ([]byte, error) {
	tr := t.enc.tr
	t0 := tr.now()
	out, err := t.inner.AppendEncode(dst, vars)
	t1 := tr.now()
	if t.encSeen.CompareAndSwap(false, true) {
		tr.rec(t.enc.side.compile, t.id, t0, t1, len(out)-len(dst), 0)
		if t.skel != nil && (err != nil || !bytes.Equal(out[len(dst):], t.skel)) {
			t.enc.dropSkel(t.skel)
		}
		t.skel = nil
		return out, err
	}
	if err == nil {
		b := out[len(dst):]
		tr.rec(t.enc.side.encode, firstID(b), t0, t1, len(b), fTemplate)
	}
	return out, err
}

func (t *tTemplate[E]) Match(data []byte, vars *[]shape.Var) bool {
	tr := t.enc.tr
	t0 := tr.now()
	ok := t.inner.Match(data, vars)
	t1 := tr.now()
	if t.matchSeen.CompareAndSwap(false, true) {
		tr.rec(t.enc.side.compile, t.id, t0, t1, len(data), 0)
		return ok
	}
	if ok {
		tr.rec(t.enc.side.decode, firstID(data), t0, t1, len(data), fTemplate)
	}
	return ok
}

// codecSink times the transport's WriteChunk inside a streamed encode, so
// the codec span's self time excludes it.
type codecSink struct {
	sink      core.ChunkSink
	tr        *tracer
	id        uint64
	bytes, ns int64
}

func (s *codecSink) WriteChunk(p *core.Payload, last bool) error {
	if s.id == 0 {
		s.id = firstID(p.Bytes())
	}
	s.bytes += int64(p.Len())
	t0 := s.tr.now()
	err := s.sink.WriteChunk(p, last)
	s.ns += s.tr.now() - t0
	return err
}

func (s *codecSink) Abort() { s.sink.Abort() }

// codecSource times the transport's ReadChunk inside a streamed decode.
type codecSource struct {
	src       core.ChunkSource
	tr        *tracer
	id        uint64
	bytes, ns int64
}

func (s *codecSource) ReadChunk() (*core.Payload, bool, error) {
	t0 := s.tr.now()
	p, last, err := s.src.ReadChunk()
	s.ns += s.tr.now() - t0
	if err == nil {
		if s.id == 0 {
			s.id = firstID(p.Bytes())
		}
		s.bytes += int64(p.Len())
	}
	return p, last, err
}

func (s *codecSource) Abort() { s.src.Abort() }

// fullBinding is what all three client bindings implement.
type fullBinding interface {
	core.StreamBinding
	Poisoned() bool
}

// tBinding wraps a client binding with send and receive spans.
type tBinding[B fullBinding] struct {
	inner B
	tr    *tracer
}

func traceBinding[B fullBinding](tr *tracer, b B) *tBinding[B] { return &tBinding[B]{inner: b, tr: tr} }

func (b *tBinding[B]) SendRequest(ctx context.Context, p *core.Payload, ct string) error {
	t0 := b.tr.now()
	err := b.inner.SendRequest(ctx, p, ct)
	t1 := b.tr.now()
	b.tr.rec(kCliSend, firstID(p.Bytes()), t0, t1, p.Len(), 0)
	return err
}

func (b *tBinding[B]) ReceiveResponse(ctx context.Context) (*core.Payload, string, error) {
	t0 := b.tr.now()
	p, ct, err := b.inner.ReceiveResponse(ctx)
	t1 := b.tr.now()
	if err == nil {
		b.tr.rec(kCliRecv, firstID(p.Bytes()), t0, t1, p.Len(), 0)
	}
	return p, ct, err
}

func (b *tBinding[B]) SendRequestStream(ctx context.Context, ct string) (core.ChunkSink, error) {
	t0 := b.tr.now()
	sink, err := b.inner.SendRequestStream(ctx, ct)
	if err != nil {
		return nil, err
	}
	return &bindSink{sink: sink, tr: b.tr, kind: kCliSend, open0: t0, open1: b.tr.now()}, nil
}

func (b *tBinding[B]) ReceiveResponseStream(ctx context.Context) (core.ChunkSource, string, error) {
	t0 := b.tr.now()
	src, ct, err := b.inner.ReceiveResponseStream(ctx)
	if err != nil {
		return nil, ct, err
	}
	return &bindSource{src: src, tr: b.tr, kind: kCliRecv, open0: t0, open1: b.tr.now()}, ct, nil
}

func (b *tBinding[B]) Poisoned() bool { return b.inner.Poisoned() }
func (b *tBinding[B]) Close() error   { return b.inner.Close() }

// bindSink times each chunk handed to a transport. The message's call ID
// is in its first chunk, so the opening span is recorded with it.
type bindSink struct {
	sink         core.ChunkSink
	tr           *tracer
	kind         kind
	id           uint64
	open0, open1 int64
}

func (s *bindSink) WriteChunk(p *core.Payload, last bool) error {
	n := p.Len()
	first := s.id == 0
	if first {
		s.id = firstID(p.Bytes())
	}
	t0 := s.tr.now()
	err := s.sink.WriteChunk(p, last)
	t1 := s.tr.now()
	if first {
		s.tr.rec(s.kind, s.id, s.open0, s.open1, 0, fOpen)
	}
	s.tr.rec(s.kind, s.id, t0, t1, n, fChunk)
	return err
}

func (s *bindSink) Abort() { s.sink.Abort() }

// bindSource times each chunk taken from a transport.
type bindSource struct {
	src          core.ChunkSource
	tr           *tracer
	kind         kind
	id           uint64
	open0, open1 int64
}

func (s *bindSource) ReadChunk() (*core.Payload, bool, error) {
	t0 := s.tr.now()
	p, last, err := s.src.ReadChunk()
	t1 := s.tr.now()
	if err != nil {
		return p, last, err
	}
	if s.id == 0 {
		s.id = firstID(p.Bytes())
		s.tr.rec(s.kind, s.id, s.open0, s.open1, 0, fOpen)
	}
	s.tr.rec(s.kind, s.id, t0, t1, p.Len(), fChunk)
	return p, last, err
}

func (s *bindSource) Abort() { s.src.Abort() }

// tServerBinding wraps a server binding so every accepted channel is
// traced.
type tServerBinding[S core.ServerBinding] struct {
	inner S
	tr    *tracer
}

func traceServerBinding[S core.ServerBinding](tr *tracer, s S) *tServerBinding[S] {
	return &tServerBinding[S]{inner: s, tr: tr}
}

func (s *tServerBinding[S]) Accept() (core.Channel, error) {
	ch, err := s.inner.Accept()
	if err != nil {
		return nil, err
	}
	if sc, ok := ch.(core.StreamChannel); ok {
		return &tStreamChannel{tChannel: tChannel{inner: ch, tr: s.tr}, stream: sc}, nil
	}
	return &tChannel{inner: ch, tr: s.tr}, nil
}

func (s *tServerBinding[S]) Addr() net.Addr { return s.inner.Addr() }
func (s *tServerBinding[S]) Close() error   { return s.inner.Close() }

type tChannel struct {
	inner core.Channel
	tr    *tracer
}

func (c *tChannel) ReceiveRequest(ctx context.Context) (*core.Payload, string, error) {
	t0 := c.tr.now()
	p, ct, err := c.inner.ReceiveRequest(ctx)
	t1 := c.tr.now()
	if err == nil {
		c.tr.rec(kSrvRecv, firstID(p.Bytes()), t0, t1, p.Len(), 0)
	}
	return p, ct, err
}

func (c *tChannel) SendResponse(p *core.Payload, ct string) error {
	id, n := firstID(p.Bytes()), p.Len()
	t0 := c.tr.now()
	err := c.inner.SendResponse(p, ct)
	c.tr.rec(kSrvSend, id, t0, c.tr.now(), n, 0)
	return err
}

func (c *tChannel) Close() error { return c.inner.Close() }

type tStreamChannel struct {
	tChannel
	stream core.StreamChannel
}

func (c *tStreamChannel) ReceiveRequestStream(ctx context.Context) (core.ChunkSource, string, error) {
	t0 := c.tr.now()
	src, ct, err := c.stream.ReceiveRequestStream(ctx)
	if err != nil {
		return nil, ct, err
	}
	return &bindSource{src: src, tr: c.tr, kind: kSrvRecv, open0: t0, open1: c.tr.now()}, ct, nil
}

func (c *tStreamChannel) SendResponseStream(ct string) (core.ChunkSink, error) {
	t0 := c.tr.now()
	sink, err := c.stream.SendResponseStream(ct)
	if err != nil {
		return nil, err
	}
	return &bindSink{sink: sink, tr: c.tr, kind: kSrvSend, open0: t0, open1: c.tr.now()}, nil
}

// tConn counts a connection's reads and writes and records, for every call
// ID in the bytes, when they crossed the socket.
type tConn struct {
	net.Conn
	tr          *tracer
	read, write kind
}

func (c *tConn) Read(b []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Read(b)
	t1 := c.tr.now()
	c.tr.reads.Add(1)
	eachID(b[:n], func(id uint64) { c.tr.rec(c.read, id, t0, t1, n, 0) })
	return n, err
}

func (c *tConn) Write(b []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Write(b)
	t1 := c.tr.now()
	c.tr.writes.Add(1)
	c.tr.wbytes.Add(int64(n))
	c.tr.writeNs.Add(t1 - t0)
	eachID(b[:n], func(id uint64) { c.tr.rec(c.write, id, t0, t1, n, 0) })
	return n, err
}

type tListener struct {
	net.Listener
	tr *tracer
}

func (l *tListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tConn{Conn: c, tr: l.tr, read: kSrvConnRead, write: kSrvConnWrite}, nil
}

func traceDial(tr *tracer, dial func(string) (net.Conn, error)) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return &tConn{Conn: c, tr: tr, read: kCliConnRead, write: kCliConnWrite}, nil
	}
}

func traceHandler(tr *tracer, h core.Handler) core.Handler {
	return func(ctx context.Context, req *core.Envelope) (*core.Envelope, error) {
		t0 := tr.now()
		resp, err := h(ctx, req)
		t1 := tr.now()
		tr.rec(kHandler, envelopeID(req), t0, t1, 0, 0)
		return resp, err
	}
}
