package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/httpbind"
	"bxsoap/internal/muxbind"
	"bxsoap/internal/obs"
	"bxsoap/internal/tcpbind"
)

// The isolated loops run one layer at a time, with no network and no
// concurrency, over the workload's own inputs: contention-free self costs
// next to the traced run's in-stack ones.

const (
	isoTime  = 400 * time.Millisecond // per loop
	isoMinN  = 4
	isoFrame = 16 // distinct pre-encoded requests the frame loop cycles
)

// isolated runs the codec, dispatcher and binding-frame loops.
func isolated(w workload, in *inputs) (map[string]metric, error) {
	enc, dec, disp := isoCodecs(w)
	encNs, decNs, dispNs, err := isoCodecLoop(w, in, enc, dec, disp)
	if err != nil {
		return nil, err
	}
	frameNs, err := isoFrames(w, in)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"iso.encode_us":   {encNs / 1e3, "us"},
		"iso.decode_us":   {decNs / 1e3, "us"},
		"iso.dispatch_us": {dispNs / 1e3, "us"},
		"iso.frame_rt_us": {frameNs / 1e3, "us"},
	}, nil
}

// codecs is the workload's client codec, a server-side codec for the
// decode loop, and a dispatcher, configured as in the stack.
type codecs struct {
	encodePayload func(*core.Envelope) (*core.Payload, error)
	encodeChunks  func(*core.Envelope, core.ChunkSink) error
	decodePayload func(*core.Payload) (*core.Envelope, error)
	decodeChunks  func(core.ChunkSource) (*core.Envelope, error)
	contentType   string
}

type dispatchFn func(context.Context, *core.Payload, string) (*core.Payload, error)

func isoCodecs(w workload) (enc, dec codecs, disp dispatchFn) {
	if w.xml {
		return codecsOf(core.XMLEncoding{}, w.opts)
	}
	return codecsOf(core.BXSAEncoding{}, w.opts)
}

func codecsOf[E core.Encoding](e E, opts []core.Option) (enc, dec codecs, disp dispatchFn) {
	eopts, sopts := split(opts)
	c := core.NewEngine(e, nopBinding{}, eopts...).Codec()
	// The decode loop and the dispatch loop each decode every request once,
	// as the server does, so each needs its own dispatcher: sharing one
	// would let dispatch hit the plans the decode loop just compiled for
	// fresh shapes.
	s := core.NewDispatcher(e, verifyHandler, sopts...).Codec()
	d := core.NewDispatcher(e, verifyHandler, sopts...)
	enc = codecs{
		encodePayload: c.EncodePayload,
		encodeChunks: func(env *core.Envelope, sink core.ChunkSink) error {
			return c.EncodeChunks(env, core.DefaultChunkBytes, sink)
		},
		decodePayload: c.DecodePayload,
		contentType:   c.ContentType(),
	}
	dec = codecs{decodePayload: s.DecodePayload, decodeChunks: s.DecodeChunks}
	disp = func(ctx context.Context, p *core.Payload, ct string) (*core.Payload, error) {
		var sp obs.Span
		return d.DispatchPayload(ctx, p, ct, &sp, nil)
	}
	return enc, dec, disp
}

// isoCodecLoop encodes each request, decodes it, and dispatches it,
// timing the three steps apart; it returns mean ns per step.
func isoCodecLoop(w workload, in *inputs, enc, dec codecs, disp dispatchFn) (encNs, decNs, dispNs float64, err error) {
	streamed := w.streamed
	var tEnc, tDec, tDisp time.Duration
	n := 0
	for ; n < isoMinN || tEnc+tDec+tDisp < isoTime; n++ {
		r := in.pick(n%w.callers, n/w.callers)
		req := buildRequest(uint64(n+1), r)
		var p *core.Payload
		var got *core.Envelope
		if streamed {
			var sink chunkList
			t0 := time.Now()
			err = enc.encodeChunks(req, &sink)
			tEnc += time.Since(t0)
			if err != nil {
				sink.release()
				return 0, 0, 0, err
			}
			p = sink.gather()
			t0 = time.Now()
			got, err = dec.decodeChunks(&sink)
			tDec += time.Since(t0)
			sink.release()
		} else {
			t0 := time.Now()
			p, err = enc.encodePayload(req)
			tEnc += time.Since(t0)
			if err != nil {
				return 0, 0, 0, err
			}
			t0 = time.Now()
			got, err = dec.decodePayload(p)
			tDec += time.Since(t0)
		}
		if err == nil && envelopeID(got) != uint64(n+1) {
			err = errors.New("isolated decode lost the call ID")
		}
		if err != nil {
			p.Release()
			return 0, 0, 0, err
		}
		t0 := time.Now()
		out, err := disp(context.Background(), p, enc.contentType)
		tDisp += time.Since(t0)
		p.Release()
		if err != nil {
			return 0, 0, 0, err
		}
		resp, err := enc.decodePayload(out)
		out.Release()
		if err == nil {
			err = checkReply(resp, uint64(n+1), r.pairs)
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("isolated dispatch: %w", err)
		}
	}
	f := float64(n)
	return float64(tEnc) / f, float64(tDec) / f, float64(tDisp) / f, nil
}

// chunkList is an in-memory chunk sink that replays as a source.
type chunkList struct {
	chunks []*core.Payload
	next   int
}

func (l *chunkList) WriteChunk(p *core.Payload, _ bool) error {
	l.chunks = append(l.chunks, p)
	return nil
}

func (l *chunkList) ReadChunk() (*core.Payload, bool, error) {
	if l.next == len(l.chunks) {
		return nil, false, io.EOF
	}
	p := l.chunks[l.next]
	l.chunks[l.next] = nil
	l.next++
	return p, l.next == len(l.chunks), nil
}

func (l *chunkList) Abort() { l.release() }

func (l *chunkList) release() {
	for _, p := range l.chunks {
		if p != nil {
			p.Release()
		}
	}
	l.chunks = nil
}

// gather copies the chunks into one payload.
func (l *chunkList) gather() *core.Payload {
	p := core.NewPayload(0)
	for _, c := range l.chunks {
		p.Write(c.Bytes())
	}
	return p
}

// nopBinding lets the isolated loops build an engine for its codec.
type nopBinding struct{}

func (nopBinding) SendRequest(context.Context, *core.Payload, string) error { return nil }
func (nopBinding) ReceiveResponse(context.Context) (*core.Payload, string, error) {
	return nil, "", io.EOF
}
func (nopBinding) Close() error { return nil }

// isoFrames round-trips pre-encoded requests through the workload's binding
// over net.Pipe against a server that answers each with a fixed small
// reply, and returns the mean ns per round trip. muxbind has no server
// Channel seam, so its server dispatches through a stub encoding whose
// decode and encode do no work.
func isoFrames(w workload, in *inputs) (float64, error) {
	enc, _, _ := isoCodecs(w)
	var reqs []*core.Payload
	defer func() {
		for _, p := range reqs {
			p.Release()
		}
	}()
	frames := isoFrame
	if w.streamed {
		frames = 2 // bulk models: keep the pre-encoded set small
	}
	for i := 0; i < frames; i++ {
		p, err := enc.encodePayload(buildRequest(uint64(i+1), in.pick(i%w.callers, i/w.callers)))
		if err != nil {
			return 0, err
		}
		reqs = append(reqs, p)
	}
	pn := newPipeNet()
	var (
		bind  core.Binding
		serve func() error
		stop  func() error
	)
	reply := []byte("reply")
	switch w.transport {
	case tcpTransport:
		l := tcpbind.NewListener(pn)
		bind, serve, stop = tcpbind.New(pn.Dial, "pipe"), func() error { return echoChannels(l, reply) }, l.Close
	case httpTransport:
		l := httpbind.NewListener(pn)
		bind, serve, stop = httpbind.New(pn.Dial, "http://pipe/soap"), func() error { return echoChannels(l, reply) }, l.Close
	case muxTransport:
		srv := muxbind.NewServer(stubEncoding{reply}, func(context.Context, *core.Envelope) (*core.Envelope, error) {
			return nil, nil
		}, muxbind.Config{})
		tp := muxbind.NewTransport(pn.Dial, "pipe")
		bind, serve = tp.NewBinding(), func() error { return srv.Serve(pn) }
		stop = func() error { return errors.Join(tp.Close(), srv.Close()) }
	}
	served := make(chan error, 1)
	go func() { served <- serve() }()
	ctx := context.Background()
	var took time.Duration
	var err error
	n := 0
	for ; n < isoMinN || took < isoTime; n++ {
		t0 := time.Now()
		err = bind.SendRequest(ctx, reqs[n%len(reqs)], enc.contentType)
		var resp *core.Payload
		if err == nil {
			resp, _, err = bind.ReceiveResponse(ctx)
		}
		took += time.Since(t0)
		if err != nil {
			break
		}
		resp.Release()
	}
	err = errors.Join(err, bind.Close(), stop(), pn.Close(), <-served)
	if err != nil {
		return 0, fmt.Errorf("isolated frames: %w", err)
	}
	return float64(took) / float64(n), nil
}

// echoChannels answers every request on every accepted channel with reply.
func echoChannels(l core.ServerBinding, reply []byte) error {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		ch, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ch.Close()
			for {
				p, ct, err := ch.ReceiveRequest(context.Background())
				if err != nil {
					return
				}
				p.Release()
				if ch.SendResponse(core.NewPayloadFrom(reply), ct) != nil {
					return
				}
			}
		}()
	}
}

// stubEncoding decodes every message to one fixed empty envelope and
// encodes every reply as fixed bytes.
type stubEncoding struct{ reply []byte }

var stubDoc = (&core.Envelope{}).Document()

func (stubEncoding) Name() string        { return "BXSA" }
func (stubEncoding) ContentType() string { return core.BXSAEncoding{}.ContentType() }
func (s stubEncoding) Encode(w io.Writer, _ *bxdm.Document) error {
	_, err := w.Write(s.reply)
	return err
}
func (s stubEncoding) AppendEncode(dst []byte, _ *bxdm.Document) ([]byte, error) {
	return append(dst, s.reply...), nil
}
func (stubEncoding) Decode([]byte) (*bxdm.Document, error) { return stubDoc, nil }
func (stubEncoding) DecodeFrom(r io.Reader, _ int64) (*bxdm.Document, error) {
	_, err := io.Copy(io.Discard, r)
	return stubDoc, err
}

// pipeNet is an in-memory network: every Dial makes a net.Pipe whose
// server end the next Accept returns.
type pipeNet struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeNet() *pipeNet { return &pipeNet{conns: make(chan net.Conn), done: make(chan struct{})} }

func (p *pipeNet) Dial(string) (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case p.conns <- s:
		return c, nil
	case <-p.done:
		c.Close()
		s.Close()
		return nil, net.ErrClosed
	}
}

func (p *pipeNet) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

func (p *pipeNet) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

func (p *pipeNet) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
