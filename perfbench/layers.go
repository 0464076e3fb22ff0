package main

import "math"

// callAgg collects one call's spans. Times are tracer-clock ns.
type callAgg struct {
	ok                    bool
	start, end, pairs     int64
	enc, encSelf, encB    int64 // client encode: total, self, request bytes
	dec, decSelf, decB    int64
	sEnc, sEncSelf, sEncB int64
	sDec, sDecSelf, sDecB int64
	compile, sCompile     int64
	compiles              int64
	send, recv            int64 // client binding time, chunks included
	sendTop, recvTop      int64 // client binding time outside codec spans
	sSend                 int64 // server Channel send time (tcpbind, httpbind)
	sSendSeen             bool
	handler               int64
	chunks, spans         int64
	hits, codecOps        int64
	encStart, firstSend   int64
	cliWrite, srvRead     int64 // conn write start / read end carrying this call's ID
	srvWrite              int64
	sDecStart, sEncEnd    int64
	cDecStart             int64
}

const unset = math.MaxInt64

func newAgg() callAgg {
	return callAgg{encStart: unset, firstSend: unset, cliWrite: unset, srvRead: unset, srvWrite: unset,
		sDecStart: unset, sEncEnd: -1, cDecStart: unset}
}

// mean accumulates a per-call average over the calls that have the data.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64) { m.sum += v; m.n++ }

func (m *mean) val() float64 { return div(m.sum, float64(m.n)) }

// us reads a mean of nanoseconds in microseconds.
func (m *mean) us() float64 { return m.val() / 1e3 }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics from the traced window's
// spans; runtime metrics and the tracing overhead come from the untraced
// window that ran just before it.
func layerMetrics(tr *tracer, traced, plain result) map[string]metric {
	calls := make([]callAgg, 0)
	at := func(id uint64) *callAgg {
		for uint64(len(calls)) <= id {
			calls = append(calls, newAgg())
		}
		return &calls[id]
	}
	tr.each(func(s *span) {
		if s.call == 0 {
			return
		}
		a := at(s.call)
		a.spans++
		d := s.end - s.start
		tmpl := s.flags&fTemplate != 0
		chunk := s.flags&fChunk != 0
		switch s.kind {
		case kCall:
			a.ok = s.start >= traced.t0 && s.end <= traced.t1
			a.start, a.end, a.pairs = s.start, s.end, s.bytes
		case kCliEncode:
			a.enc += d
			a.encSelf += d - s.inner
			a.encB += s.bytes
			a.encStart = min(a.encStart, s.start)
			a.codecOps++
		case kCliDecode:
			a.dec += d
			a.decSelf += d - s.inner
			a.decB += s.bytes
			a.cDecStart = min(a.cDecStart, s.start)
			a.codecOps++
		case kSrvEncode:
			a.sEnc += d
			a.sEncSelf += d - s.inner
			a.sEncB += s.bytes
			a.sEncEnd = max(a.sEncEnd, s.end)
			a.codecOps++
		case kSrvDecode:
			a.sDec += d
			a.sDecSelf += d - s.inner
			a.sDecB += s.bytes
			a.sDecStart = min(a.sDecStart, s.start)
			a.codecOps++
		case kCliCompile:
			a.compile += d
			if s.flags&fOpen != 0 {
				a.compiles++
			}
		case kSrvCompile:
			a.sCompile += d
			if s.flags&fOpen != 0 {
				a.compiles++
			}
		case kCliSend:
			a.send += d
			if !chunk {
				a.sendTop += d
			}
			a.firstSend = min(a.firstSend, s.start)
		case kCliRecv:
			a.recv += d
			if !chunk {
				a.recvTop += d
			}
		case kSrvSend:
			a.sSend += d
			a.sSendSeen = true
		case kHandler:
			a.handler += d
		case kCliConnWrite:
			a.cliWrite = min(a.cliWrite, s.start)
		case kSrvConnRead:
			a.srvRead = min(a.srvRead, s.end)
		case kSrvConnWrite:
			a.srvWrite = min(a.srvWrite, s.start)
		}
		if chunk {
			a.chunks++
		}
		if tmpl {
			a.hits++
		}
	})

	var (
		n                                         int
		encUS, decUS, compUS, engSelf, dispSelf   mean
		sendUS, recvUS, srvRecv, srvSend          mean
		reqGap, respGap, poolWait, verify, chunks mean
		encB, encNs, decB, decNs, reqB, pairs     float64
		hits, ops, compiles, spans                float64
	)
	for i := range calls {
		a := &calls[i]
		if !a.ok {
			continue
		}
		n++
		encUS.add(float64(a.encSelf + a.sEncSelf))
		decUS.add(float64(a.decSelf + a.sDecSelf))
		compUS.add(float64(a.compile + a.sCompile))
		encB += float64(a.encB + a.sEncB)
		encNs += float64(a.encSelf + a.sEncSelf)
		decB += float64(a.decB + a.sDecB)
		decNs += float64(a.decSelf + a.sDecSelf)
		reqB += float64(a.encB)
		pairs += float64(a.pairs)
		hits += float64(a.hits)
		ops += float64(a.codecOps)
		compiles += float64(a.compiles)
		engSelf.add(float64(a.end - a.start - a.enc - a.dec - a.sendTop - a.recvTop - a.compile))
		if a.sDecStart != unset && a.sEncEnd >= 0 {
			dispSelf.add(float64(a.sEncEnd - a.sDecStart - a.sDec - a.handler - a.sEnc - a.sCompile))
		}
		sendUS.add(float64(a.send))
		recvUS.add(float64(a.recv))
		if a.srvRead != unset && a.sDecStart != unset {
			srvRecv.add(float64(a.sDecStart - a.srvRead))
		}
		switch {
		case a.sSendSeen:
			srvSend.add(float64(a.sSend))
		case a.srvWrite != unset && a.sEncEnd >= 0:
			srvSend.add(float64(a.srvWrite - a.sEncEnd))
		}
		if a.cliWrite != unset && a.sDecStart != unset {
			reqGap.add(float64(a.sDecStart - a.cliWrite))
		}
		if a.srvWrite != unset && a.cDecStart != unset {
			respGap.add(float64(a.cDecStart - a.srvWrite))
		}
		if a.firstSend != unset {
			w := a.firstSend - a.start
			if a.encStart < a.firstSend {
				w -= a.enc + a.compile // buffered: the encode ran before the send
			}
			poolWait.add(float64(w))
		}
		verify.add(float64(a.handler))
		chunks.add(float64(a.chunks))
		spans += float64(a.spans)
	}
	nf := float64(n)
	conn := func(i int) float64 { return float64(traced.connEnd[i] - traced.connStart[i]) }
	gcCPU := plain.after.gcCPU - plain.before.gcCPU
	m := map[string]metric{
		"codec.encode_us":              {encUS.us(), "us"},
		"codec.decode_us":              {decUS.us(), "us"},
		"codec.encode_MBps":            {div(encB*1e3, encNs), "MB/s"},
		"codec.decode_MBps":            {div(decB*1e3, decNs), "MB/s"},
		"codec.wire_bytes_per_pair":    {div(reqB, pairs), "B"},
		"core.plan_hit_ratio":          {div(hits, ops), "fraction"},
		"core.plan_compiles_per_kcall": {div(compiles*1e3, nf), "count"},
		"core.plan_compile_us":         {compUS.us(), "us"},
		"core.engine_self_us":          {engSelf.us(), "us"},
		"core.dispatch_self_us":        {dispSelf.us(), "us"},
		"core.chunks_per_call":         {chunks.val(), "count"},
		"binding.send_us":              {sendUS.us(), "us"},
		"binding.recv_wait_us":         {recvUS.us(), "us"},
		"binding.srv_recv_us":          {srvRecv.us(), "us"},
		"binding.srv_send_us":          {srvSend.us(), "us"},
		"binding.req_gap_us":           {reqGap.us(), "us"},
		"binding.resp_gap_us":          {respGap.us(), "us"},
		"netsim.reads_per_call":        {div(conn(0), nf), "count"},
		"netsim.writes_per_call":       {div(conn(1), nf), "count"},
		"netsim.bytes_per_call":        {div(conn(2), nf), "B"},
		"netsim.write_us":              {div(conn(3), nf) / 1e3, "us"},
		"svcpool.wait_us":              {poolWait.us(), "us"},
		"svcpool.retry_ratio":          {div(float64(traced.retries), nf), "fraction"},
		"muxbind.sessions":             {float64(traced.sessions), "count"},
		"dataset.verify_us":            {verify.us(), "us"},
		"runtime.gc_cpu_frac":          {div(gcCPU, plain.cpu.Seconds()), "fraction"},
		"runtime.gc_cycles_per_kcall":  {div(float64(plain.after.gcCycles-plain.before.gcCycles)*1e3, float64(plain.ok)), "count"},
		"runtime.sched_latency_p99_us": {schedP99(plain.before, plain.after) * 1e6, "us"},
		"trace.calls":                  {nf, "count"},
		"trace.spans_per_call":         {div(spans, nf), "count"},
		"trace.overhead_frac":          {1 - div(traced.rate(), plain.rate()), "fraction"},
	}
	return m
}

// schedP99 is the p99 of the goroutine scheduling latencies observed
// between two samples, in seconds (upper bucket bound).
func schedP99(a, b runtimeSample) float64 {
	var total uint64
	d := make([]uint64, len(b.sched))
	for i := range b.sched {
		d[i] = b.sched[i] - a.sched[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= want {
			hi := b.schedBuckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.schedBuckets[i]
			}
			return hi
		}
	}
	return 0
}
