package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"bxsoap/internal/bxdm"
	"bxsoap/internal/core"
	"bxsoap/internal/dataset"
)

// Everything a run sends is generated here from the seed, before any
// timing starts: the models, their sizes, and each caller's schedule.

// benchNS is the namespace of the benchmark's own envelope parts (the call
// ID header and the verify reply).
const benchNS = "urn:bxsoap:perfbench"

var (
	callIDName   = bxdm.PName(benchNS, "pb", "call")
	resultName   = bxdm.PName(benchNS, "pb", "result")
	verifiedName = bxdm.Name(benchNS, "verified")
)

// idMarker prefixes every call ID on the wire. IDs are fixed-width hex, so
// every request of one model shape has one message shape (the plan cache
// keys on string lengths) and the ID can be read back out of raw bytes at
// any layer: BXSA stores strings verbatim, XML as text.
const (
	idMarker = "callid-"
	idDigits = 16
)

func idString(id uint64) string {
	var b [len(idMarker) + idDigits]byte
	copy(b[:], idMarker)
	const hex = "0123456789abcdef"
	for i := len(b) - 1; i >= len(idMarker); i-- {
		b[i] = hex[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// parseID reads the call ID that follows a marker at b[0:].
func parseID(b []byte) uint64 {
	if len(b) < len(idMarker)+idDigits {
		return 0
	}
	id, err := strconv.ParseUint(string(b[len(idMarker):len(idMarker)+idDigits]), 16, 64)
	if err != nil {
		return 0
	}
	return id
}

func idHeader(id uint64) *bxdm.LeafElement {
	h := bxdm.NewLeaf(callIDName, idString(id))
	h.DeclareNamespace("pb", benchNS)
	return h
}

// envelopeID returns the call ID carried in an envelope's header (0 when
// absent).
func envelopeID(e *core.Envelope) uint64 {
	h, ok := e.Header(callIDName).(*bxdm.LeafElement)
	if !ok {
		return 0
	}
	return parseID([]byte(h.Value.Text()))
}

// request is one pre-built model: the body element every call of it sends.
type request struct {
	pairs int
	body  *bxdm.Element
}

func newRequest(r *rng, pairs int) request {
	m := dataset.Model{Index: make([]int32, pairs), Values: make([]float64, pairs)}
	for i := range m.Index {
		m.Index[i] = int32(i)
		// Quantized to 1/8 inside 850..1050, so Model.Verify accepts every
		// pair and the verified count must equal the pair count.
		m.Values[i] = 850 + float64(r.intn(1601))/8
	}
	return request{pairs: pairs, body: m.Element()}
}

// inputs is one workload's generated traffic.
type inputs struct {
	models []request
	// sched[c] is caller c's model schedule, cycled; freshSlot marks a
	// call that takes the next model of the shared fresh sequence instead.
	sched [][]int32
	// warm[c] is caller c's warm-up calls, the same in every set-up.
	warm  [][]request
	fresh []request
	next  atomic.Uint64 // fresh-sequence cursor
}

const freshSlot = -1

func (in *inputs) pick(caller, i int) request {
	s := in.sched[caller]
	k := s[i%len(s)]
	if k == freshSlot {
		n := in.next.Add(1) - 1
		return in.fresh[n%uint64(len(in.fresh))]
	}
	return in.models[k]
}

// stratifiedSizes draws n sizes log-uniform over [lo, hi], one per equal
// slice of the log range, each jittered by the seed within the middle
// fifth of its slice. Every seed covers the range evenly and moves each
// size only a little, so the size mix (and with it the latency quantiles,
// which sit on particular models when the pool is small) barely moves
// between seeds.
func stratifiedSizes(r *rng, n, lo, hi int) []int {
	out := make([]int, n)
	span := math.Log(float64(hi) / float64(lo))
	for i := range out {
		u := (float64(i) + 0.4 + 0.2*r.float()) / float64(n)
		out[i] = int(math.Round(float64(lo) * math.Exp(u*span)))
	}
	return out
}

// genCycle builds a pool of log-uniform models and one caller cycling it
// in a seeded order: rpc-small, rpc-xml-http and bulk-stream. The warm-up
// takes warm models evenly spaced in size order, so its work is nearly the
// same whatever the seed; the pool is stratified, so models[i] is the i-th
// smallest.
func genCycle(seed uint64, n, lo, hi, warm int) *inputs {
	r := newRNG(seed)
	in := &inputs{}
	for _, size := range stratifiedSizes(r, n, lo, hi) {
		in.models = append(in.models, newRequest(r, size))
	}
	order := make([]int32, n)
	for i, k := range r.perm(n) {
		order[i] = int32(k)
	}
	in.sched = [][]int32{order}
	spaced := make([]request, warm)
	for i := range spaced {
		spaced[i] = in.models[(2*i+1)*n/(2*warm)]
	}
	in.warm = [][]request{spaced}
	return in
}

// Fan-in traffic: hot sizes follow a Zipf law and about one call in ten
// carries a size that is not among them.
const (
	hotSizes    = 8
	freshShare  = 0.1
	schedPerCPU = 4096
)

// genFanin builds the fanin-mux traffic. The hot sizes are stratified
// (one per eighth of the log range) and ranked small to large, rank k
// weighing 1/k. Fresh calls walk a seeded permutation of every other size
// in range, so a fresh size recurs only after ~1000 other fresh calls, far
// past the plan cache's 64 entries. Each caller warms up on the first warm
// entries of its schedule, its fresh calls taken from the end of the walk
// so the measured window's start is not already compiled.
func genFanin(seed uint64, callers, lo, hi, warm int) *inputs {
	r := newRNG(seed)
	in := &inputs{}
	hot := map[int]bool{}
	for _, size := range stratifiedSizes(r, hotSizes, lo, hi) {
		hot[size] = true
		in.models = append(in.models, newRequest(r, size))
	}
	var rest []int
	for size := lo; size <= hi; size++ {
		if !hot[size] {
			rest = append(rest, size)
		}
	}
	for _, k := range r.perm(len(rest)) {
		in.fresh = append(in.fresh, newRequest(r, rest[k]))
	}
	var cdf [hotSizes]float64
	total := 0.0
	for k := range cdf {
		total += 1 / float64(k+1)
		cdf[k] = total
	}
	for c := 0; c < callers; c++ {
		s := make([]int32, schedPerCPU)
		for i := range s {
			if r.float() < freshShare {
				s[i] = freshSlot
				continue
			}
			u := r.float() * total
			k := 0
			for cdf[k] < u {
				k++
			}
			s[i] = int32(k)
		}
		in.sched = append(in.sched, s)
	}
	f := len(in.fresh)
	for _, s := range in.sched {
		var wl []request
		for _, k := range s[:warm] {
			if k == freshSlot {
				f--
				wl = append(wl, in.fresh[f])
			} else {
				wl = append(wl, in.models[k])
			}
		}
		in.warm = append(in.warm, wl)
	}
	return in
}

// rng is splitmix64: deterministic per seed and cheap.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// buildRequest assembles one call's envelope around a pre-built body.
func buildRequest(id uint64, r request) *core.Envelope {
	return &core.Envelope{
		HeaderEntries: []bxdm.Node{idHeader(id)},
		BodyChildren:  []bxdm.Node{r.body},
	}
}

// verifyHandler is the server's work: decode the model, verify every pair,
// and answer with the count, echoing the call ID header.
func verifyHandler(_ context.Context, req *core.Envelope) (*core.Envelope, error) {
	body := req.Body()
	if body == nil {
		return nil, &core.Fault{Code: core.FaultClient, String: "empty body"}
	}
	m, err := dataset.FromElement(body)
	if err != nil {
		return nil, &core.Fault{Code: core.FaultClient, String: err.Error()}
	}
	res := bxdm.NewElement(resultName, bxdm.NewLeaf(verifiedName, int64(m.Verify())))
	res.DeclareNamespace("pb", benchNS)
	resp := core.NewEnvelope(res)
	if h := req.Header(callIDName); h != nil {
		resp.AddHeader(h)
	}
	return resp, nil
}

// checkReply confirms a reply answers call id and verified every pair.
func checkReply(resp *core.Envelope, id uint64, pairs int) error {
	if got := envelopeID(resp); got != id {
		return fmt.Errorf("reply carries call %d, want %d", got, id)
	}
	res, ok := resp.Body().(*bxdm.Element)
	if !ok {
		return fmt.Errorf("reply body is not the verify result")
	}
	v, ok := res.FirstChild(verifiedName).(*bxdm.LeafElement)
	if !ok {
		return fmt.Errorf("reply has no verified count")
	}
	if n := v.Value.Int64(); n != int64(pairs) {
		return fmt.Errorf("server verified %d of %d pairs", n, pairs)
	}
	return nil
}
