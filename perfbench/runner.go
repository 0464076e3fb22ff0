package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bxsoap/internal/core"
)

// runner runs a workload's closed-loop callers against stacks it sets up
// and tears down, and keeps the run's correctness and leak accounting.
type runner struct {
	w   workload
	in  *inputs
	ids atomic.Uint64
	pos []int // next schedule position per caller in a measured window

	goroutines int    // baseline goroutine count before any stack exists
	inputLive  uint64 // live heap of the generated inputs

	attempted, failed int
}

func newRunner(w workload, in *inputs) *runner {
	runtime.GC()
	d := &runner{w: w, in: in, pos: make([]int, w.callers), goroutines: runtime.NumGoroutine()}
	d.inputLive = readMetrics().liveHeap
	return d
}

func (d *runner) report() report {
	return report{Correct: true, Attempted: d.attempted, Failed: d.failed}
}

// next is caller c's next request in a measured window.
func (d *runner) next(c int) request {
	r := d.in.pick(c, d.pos[c])
	d.pos[c]++
	return r
}

// rewind puts every caller back at the start of its schedule and the
// fresh sequence at its first model, so a measured run always starts
// with the same calls.
func (d *runner) rewind() {
	clear(d.pos)
	d.in.next.Store(0)
}

// call sends r and checks the reply. With a tracer it also records the
// call span.
func (d *runner) call(st *stack, r request, tr *tracer) (lat time.Duration, pairs int, err error) {
	id := d.ids.Add(1)
	req := buildRequest(id, r)
	var resp *core.Envelope
	if tr != nil {
		t0 := tr.now()
		resp, err = st.call(context.Background(), req)
		t1 := tr.now()
		tr.add(span{call: id, start: t0, end: t1, bytes: int64(r.pairs), kind: kCall})
		lat = time.Duration(t1 - t0)
	} else {
		t0 := time.Now()
		resp, err = st.call(context.Background(), req)
		lat = time.Since(t0)
	}
	if err == nil {
		err = checkReply(resp, id, r.pairs)
	}
	return lat, r.pairs, err
}

// setup starts a stack and warms it up: first dials, template compiles and
// the payload pool. Every set-up sends each caller's same warm-up list
// from a freshly collected heap. It returns the time that took.
func (d *runner) setup(o stackOpts) (*stack, time.Duration, error) {
	tr := o.tr
	runtime.GC()
	t0 := time.Now()
	st, err := d.w.start(o)
	if err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", d.w.name, err)
	}
	errs := make([]error, d.w.callers)
	var wg sync.WaitGroup
	for c := 0; c < d.w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, r := range d.in.warm[c] {
				if _, _, errs[c] = d.call(st, r, tr); errs[c] != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	took := time.Since(t0)
	if err := firstErr(errs...); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return st, took, nil
}

// teardown closes the stack and waits until every goroutine it started has
// exited and every pooled payload is back: a leak fails the run.
func (d *runner) teardown(st *stack) error {
	if err := st.close(); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, p := runtime.NumGoroutine(), core.PayloadsInUse()
		if g <= d.goroutines && p == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leak after teardown: %d goroutines (baseline %d), %d payloads in use", g, d.goroutines, p)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// result is one measured window, or several added together.
type result struct {
	err       error // first failed call or wrong reply
	ok        int
	pairs     int64
	lat       []time.Duration // every call's latency; a failed call's is MaxInt64
	elapsed   time.Duration
	cpu       time.Duration
	allocs    uint64 // bytes allocated
	before    runtimeSample
	after     runtimeSample
	heapPeak  uint64
	sessions  int
	retries   uint64
	connStart [4]int64 // tracer conn counters at window start
	connEnd   [4]int64
	t0, t1    int64  // window bounds on the tracer clock
	firstID   uint64 // first call ID of the window
}

// measure runs the closed loop for window, each caller going on from
// where its schedule stands: each caller sends its next request as soon
// as its previous reply has been checked. The window ends when the last
// caller's last call has returned. With sampleHeap it also polls the live
// heap for its peak.
func (d *runner) measure(st *stack, window time.Duration, tr *tracer, sampleHeap bool) result {
	var res result
	// callerRun is what one caller did in the window.
	type callerRun struct {
		lat   []time.Duration
		ok    int
		pairs int64
		err   error
	}
	runs := make([]callerRun, d.w.callers)
	runtime.GC()
	peak := func() uint64 { return 0 }
	if sampleHeap {
		peak = startHeapSampler()
	}
	res.before = readMetrics()
	res.firstID = d.ids.Load() + 1
	if tr != nil {
		res.connStart = tr.connCounters()
		res.t0 = tr.now()
	}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < d.w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cr := callerRun{lat: make([]time.Duration, 0, 1<<12)}
			for time.Now().Before(deadline) {
				lat, n, err := d.call(st, d.next(c), tr)
				if err != nil {
					cr.err = firstErr(cr.err, err)
					lat = time.Duration(math.MaxInt64)
				} else {
					cr.ok++
					cr.pairs += int64(n)
				}
				cr.lat = append(cr.lat, lat)
			}
			runs[c] = cr
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	if tr != nil {
		res.t1 = tr.now()
		res.connEnd = tr.connCounters()
	}
	res.after = readMetrics()
	res.allocs = res.after.allocs - res.before.allocs
	res.heapPeak = peak()
	res.sessions = st.sessions()
	res.retries = st.retries()
	for _, cr := range runs {
		res.lat = append(res.lat, cr.lat...)
		res.ok += cr.ok
		res.pairs += cr.pairs
		res.err = firstErr(res.err, cr.err)
	}
	if res.err != nil {
		res.err = fmt.Errorf("call failed: %w", res.err)
	}
	d.attempted += len(res.lat)
	d.failed += len(res.lat) - res.ok
	return res
}

// add counts window o into r for the end-to-end metrics.
func (r *result) add(o result) {
	r.err = firstErr(r.err, o.err)
	r.ok += o.ok
	r.pairs += o.pairs
	r.lat = append(r.lat, o.lat...)
	r.elapsed += o.elapsed
	r.cpu += o.cpu
	r.allocs += o.allocs
}

// rate is successful calls per second.
func (r result) rate() float64 { return float64(r.ok) / r.elapsed.Seconds() }

// endToEnd reports the end-to-end metrics over every call of r: rates and
// per-call costs are totals over the whole measured time, and latencies
// are percentiles of all calls together. The shared machine's slow and
// fast spells then weigh by how long they last; a median over short
// sub-windows would jump from one speed to the other whenever a run holds
// the two in about equal parts.
func (r result) endToEnd(tail float64) (map[string]metric, error) {
	if r.ok == 0 {
		return nil, fmt.Errorf("no successful call")
	}
	slices.Sort(r.lat)
	ok, secs := float64(r.ok), r.elapsed.Seconds()
	return map[string]metric{
		"calls_per_s":       {ok / secs, "1/s"},
		"payload_MBps":      {float64(r.pairs) * 12 / secs / 1e6, "MB/s"},
		"latency_p50_us":    {percentile(r.lat, 50).Seconds() * 1e6, "us"},
		"latency_tail_us":   {percentile(r.lat, tail).Seconds() * 1e6, "us"},
		"cpu_us_per_call":   {r.cpu.Seconds() * 1e6 / ok, "us"},
		"alloc_KB_per_call": {float64(r.allocs) / ok / 1e3, "KB"},
	}, nil
}

// heapMB is the highest post-GC live heap of the window above the inputs'.
func (r result) heapMB(d *runner) float64 {
	return (float64(r.heapPeak) - float64(d.inputLive)) / 1e6
}

// percentile is the nearest-rank percentile of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is the runtime/metrics state the metrics are deltas of.
type runtimeSample struct {
	allocs, liveHeap, gcCycles uint64
	gcCPU                      float64
	sched                      []uint64 // /sched/latencies bucket counts
	schedBuckets               []float64
}

var metricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readMetrics() runtimeSample {
	s := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	return runtimeSample{
		allocs:       s[0].Value.Uint64(),
		liveHeap:     s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		sched:        append([]uint64(nil), h.Counts...),
		schedBuckets: h.Buckets,
	}
}

// startHeapSampler polls the live heap (as of the last GC) until the
// returned function is called, which stops it and returns the highest
// value seen.
func startHeapSampler() func() uint64 {
	stop, done := make(chan struct{}), make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-t.C:
			case <-stop:
				done <- peak
				return
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}
