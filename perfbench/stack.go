package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"

	"bxsoap/internal/core"
	"bxsoap/internal/httpbind"
	"bxsoap/internal/muxbind"
	"bxsoap/internal/netsim"
	"bxsoap/internal/obs"
	"bxsoap/internal/svcpool"
	"bxsoap/internal/tcpbind"
)

// workload is one traffic mix and the stack it runs on. The stack is
// described once, by xml, opts, transport and streamed; the running stack
// (start) and the isolated loops (iso.go) are both built from it.
type workload struct {
	name      string
	callers   int
	tail      float64 // percentile reported as latency_tail_us
	warmup    int     // calls per caller during set-up
	gen       func(seed uint64, warmup int) *inputs
	xml       bool          // XML 1.0 instead of BXSA
	opts      []core.Option // on every engine and on the server
	transport transport
	streamed  bool // Engine.CallStream instead of Engine.Call
}

type transport int

const (
	tcpTransport  transport = iota // tcpbind, one engine
	httpTransport                  // httpbind, one engine
	muxTransport                   // svcpool of engines over one muxbind transport
)

// fanCallers is fanin-mux's caller count.
const fanCallers = 16

// planCapacity is fanin-mux's plan cache size on each engine and on the
// server. WithTemplates documents capacity <= 0 as "pick a default", but
// NewEngine and NewDispatcher only enable the cache for a positive
// capacity, so the documented default (64) is spelled out.
const planCapacity = 64

var workloads = []workload{
	{
		// BXSA over tcpbind, buffered Engine.Call, default options.
		name: "rpc-small", callers: 1, tail: 99, warmup: 512,
		gen:       func(seed uint64, warm int) *inputs { return genCycle(seed, 1024, 16, 1024, warm) },
		transport: tcpTransport,
	},
	{
		// XML 1.0 over httpbind, the paper's baseline.
		name: "rpc-xml-http", callers: 1, tail: 99, warmup: 256,
		gen:       func(seed uint64, warm int) *inputs { return genCycle(seed, 1024, 16, 1024, warm) },
		xml:       true,
		transport: httpTransport,
	},
	{
		// BXSA over tcpbind, streamed both ways, Engine.CallStream.
		name: "bulk-stream", callers: 1, tail: 90, warmup: 4,
		gen:       func(seed uint64, warm int) *inputs { return genCycle(seed, 16, 64<<10, 1<<20, warm) },
		opts:      []core.Option{core.WithStreaming(core.DefaultChunkBytes)},
		transport: tcpTransport,
		streamed:  true,
	},
	{
		// 16 callers share an svcpool over muxbind (at most 2 sessions),
		// BXSA with templates on both sides.
		name: "fanin-mux", callers: fanCallers, tail: 99, warmup: 64,
		gen:       func(seed uint64, warm int) *inputs { return genFanin(seed, fanCallers, 16, 1024, warm) },
		opts:      []core.Option{core.WithTemplates(planCapacity)},
		transport: muxTransport,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// stack is one running client+server composition.
type stack struct {
	call     func(context.Context, *core.Envelope) (*core.Envelope, error)
	close    func() error
	sessions func() int    // live muxbind sessions
	retries  func() uint64 // svcpool retries
}

func none() int         { return 0 }
func noRetries() uint64 { return 0 }

// stackOpts configures a stack's start.
type stackOpts struct {
	// tr, when set, wraps every seam with the tracing wrappers.
	tr *tracer
	// tap, when set, wraps each conn right above netsim (server tells
	// which end); tests record wire bytes with it.
	tap func(c net.Conn, server bool) net.Conn
	// obs, when set, is attached to the engines and the server.
	obs *obs.Observer
}

func (o stackOpts) options(more ...core.Option) []core.Option {
	if o.obs != nil {
		more = append(more, core.WithObserver(o.obs))
	}
	return more
}

func (o stackOpts) handler() core.Handler {
	if o.tr == nil {
		return verifyHandler
	}
	return traceHandler(o.tr, verifyHandler)
}

// split hands options that apply to both ends to each constructor.
func split(opts []core.Option) ([]core.EngineOption, []core.ServerOption) {
	var eopts []core.EngineOption
	var sopts []core.ServerOption
	for _, o := range opts {
		eopts = append(eopts, o)
		sopts = append(sopts, o)
	}
	return eopts, sopts
}

// network opens a listener and a dialer on real loopback TCP through
// netsim.Unshaped, which adds no delay or pacing.
func network(o stackOpts) (net.Listener, func(string) (net.Conn, error), error) {
	nw := netsim.New(netsim.Unshaped)
	raw, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	var l net.Listener = raw
	dial := nw.Dial
	if o.tap != nil {
		l = &tapListener{Listener: raw, tap: o.tap}
		dial = func(addr string) (net.Conn, error) {
			c, err := nw.Dial(addr)
			if err != nil {
				return nil, err
			}
			return o.tap(c, false), nil
		}
	}
	if o.tr == nil {
		return l, dial, nil
	}
	return &tListener{Listener: l, tr: o.tr}, traceDial(o.tr, dial), nil
}

type tapListener struct {
	net.Listener
	tap func(net.Conn, bool) net.Conn
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.tap(c, true), nil
}

// start builds the workload's stack: its encoding, options and transport,
// with every seam wrapped when o.tr is set.
func (w workload) start(o stackOpts) (*stack, error) {
	if w.xml {
		return startWith(w, core.XMLEncoding{}, o)
	}
	return startWith(w, core.BXSAEncoding{}, o)
}

func startWith[E fullEncoding](w workload, enc E, o stackOpts) (*stack, error) {
	if o.tr == nil {
		return startOn(w, enc, enc, o)
	}
	return startOn(w, traceEncoding(o.tr, enc, clientSide), traceEncoding(o.tr, enc, serverSide), o)
}

func startOn[E core.Encoding](w workload, cEnc, sEnc E, o stackOpts) (*stack, error) {
	l, dial, err := network(o)
	if err != nil {
		return nil, err
	}
	opts := o.options(w.opts...)
	switch w.transport {
	case tcpTransport:
		return startDirect(cEnc, sEnc, tcpbind.NewListener(l), tcpbind.New(dial, l.Addr().String()), w.streamed, o, opts), nil
	case httpTransport:
		hl := httpbind.NewListener(l)
		return startDirect(cEnc, sEnc, hl, httpbind.New(dial, hl.URL()), w.streamed, o, opts), nil
	default:
		if o.tr == nil {
			return startMux(cEnc, sEnc, l, dial, func(b *muxbind.Binding) *muxbind.Binding { return b }, o.handler(), opts), nil
		}
		return startMux(cEnc, sEnc, l, dial, func(b *muxbind.Binding) *tBinding[*muxbind.Binding] { return traceBinding(o.tr, b) }, o.handler(), opts), nil
	}
}

// startDirect serves one engine from a core.Server: the tcpbind and
// httpbind workloads.
func startDirect[E core.Encoding, B fullBinding, S core.ServerBinding](cEnc, sEnc E, sb S, bind B, streamed bool, o stackOpts, opts []core.Option) *stack {
	if o.tr == nil {
		return serveDirect(cEnc, sEnc, sb, bind, o.handler(), streamed, opts)
	}
	return serveDirect(cEnc, sEnc, traceServerBinding(o.tr, sb), traceBinding(o.tr, bind), o.handler(), streamed, opts)
}

func serveDirect[E core.Encoding, B core.Binding, S core.ServerBinding](cEnc, sEnc E, sb S, bind B, h core.Handler, streamed bool, opts []core.Option) *stack {
	eopts, sopts := split(opts)
	srv := core.NewServer(sEnc, sb, h, sopts...)
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	eng := core.NewEngine(cEnc, bind, eopts...)
	call := eng.Call
	if streamed {
		call = eng.CallStream
	}
	return &stack{
		call: call,
		close: func() error {
			err := errors.Join(eng.Close(), srv.Close())
			return errors.Join(err, <-served)
		},
		sessions: none,
		retries:  noRetries,
	}
}

// startMux serves an svcpool of engines over one muxbind transport from a
// muxbind.Server.
func startMux[E core.Encoding, B core.Binding](cEnc, sEnc E, l net.Listener, dial func(string) (net.Conn, error), wrap func(*muxbind.Binding) B, h core.Handler, opts []core.Option) *stack {
	eopts, sopts := split(opts)
	srv := muxbind.NewServer(sEnc, h, muxbind.Config{}, sopts...)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	tp := muxbind.NewTransport(dial, l.Addr().String(), muxbind.WithMaxSessions(min(2, runtime.NumCPU())))
	pool := svcpool.New(func(context.Context) (*core.Engine[E, B], error) {
		return core.NewEngine(cEnc, wrap(tp.NewBinding()), eopts...), nil
	}, svcpool.Config{MaxConns: fanCallers, MaxInflight: fanCallers})
	return &stack{
		call: pool.Call,
		close: func() error {
			err := errors.Join(pool.Close(), tp.Close(), srv.Close())
			return errors.Join(err, <-served)
		},
		sessions: tp.Sessions,
		retries:  func() uint64 { return pool.Stats().Retries },
	}
}
