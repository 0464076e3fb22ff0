// Command perfbench is the repository's end-to-end benchmark: one process
// hosts the client and server stacks of one workload, they talk over real
// loopback TCP through netsim.Unshaped, and closed-loop callers measure
// calls for a fixed time. See README.md for the workloads, the metrics and
// the layer map.
//
//	go run . -workload rpc-small -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the
// same workload untraced and then traced and prints the per-layer
// metrics, the tracing overhead, and the isolated per-layer loops. The
// last line of standard output is one JSON object. Any wrong reply, failed
// call, leaked payload or leaked goroutine fails the run (exit 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	note      string            // printed above the JSON line
}

// spanCalls is how many calls of the traced window have their spans
// written out; the per-layer metrics use every call.
const spanCalls = 10000

// setupReps is how many times an end-to-end run sets its stack up and
// measures it; setup_s is the median set-up time.
const setupReps = 10

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: rpc-small, rpc-xml-http, bulk-stream or fanin-mux")
	seed := flag.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -seconds >= 1 and -trace 0|1:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs())

	in := w.gen(*seed, w.warmup)
	d := newRunner(w, in)
	window := time.Duration(*seconds) * time.Second
	var rep report
	if *traced == 0 {
		rep, err = endToEnd(d, window)
	} else {
		rep, err = perLayer(d, window, filepath.Join(".bench_build", "spans", w.name+".tsv"))
	}
	runtime.KeepAlive(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		rep.Correct = false
		rep.Metrics = map[string]metric{}
	}
	printReport(os.Stdout, w.name, *seed, rep)
	if !rep.Correct {
		return 1
	}
	return 0
}

// endToEnd runs setupReps segments of window/setupReps each: set the
// stack up, measure it, tear it down. setup_s is the median set-up time;
// every other metric is taken over all calls of all segments together.
// Spread over the run like the measured calls, the set-ups meet the
// shared machine's slow and fast spells as the calls do. The schedules
// run on across segments from a fixed start, so a short model cycle is
// not cut at the same place in every segment.
func endToEnd(d *runner, window time.Duration) (report, error) {
	var setups []float64
	var all result
	d.rewind()
	for i := 0; i < setupReps; i++ {
		st, took, err := d.setup(stackOpts{})
		if err != nil {
			return d.report(), err
		}
		setups = append(setups, took.Seconds())
		res := d.measure(st, window/setupReps, nil, false)
		if err := firstErr(res.err, d.teardown(st)); err != nil {
			return d.report(), err
		}
		all.add(res)
	}
	rep := d.report()
	m, err := all.endToEnd(d.w.tail)
	if err != nil {
		return rep, fmt.Errorf("%w in %v", err, window)
	}
	m["setup_s"] = metric{median(setups), "s"}
	rep.Metrics = m
	rep.note = fmt.Sprintf("setup_s is the median of %d set-ups; the other metrics cover all %d calls of %.1f s measured; latency_tail_us is p%g",
		len(setups), len(all.lat), all.elapsed.Seconds(), d.w.tail)
	return rep, nil
}

// perLayer measures the workload untraced and then traced for half the
// window each, derives the per-layer metrics from the traced run's spans,
// and adds the isolated loops.
func perLayer(d *runner, window time.Duration, spanPath string) (report, error) {
	half := window / 2
	st, _, err := d.setup(stackOpts{})
	if err != nil {
		return d.report(), err
	}
	d.rewind()
	plain := d.measure(st, half, nil, true)
	if err := firstErr(plain.err, d.teardown(st)); err != nil {
		return d.report(), err
	}

	tr := newTracer()
	st, _, err = d.setup(stackOpts{tr: tr})
	if err != nil {
		return d.report(), err
	}
	d.rewind()
	traced := d.measure(st, half, tr, false)
	if err := firstErr(traced.err, d.teardown(st)); err != nil {
		return d.report(), err
	}
	m := layerMetrics(tr, traced, plain)
	m["runtime.heap_peak_MB"] = metric{plain.heapMB(d), "MB"}
	if err := tr.writeTSV(spanPath, traced.firstID, spanCalls); err != nil {
		return d.report(), fmt.Errorf("write spans: %w", err)
	}
	tr = nil
	debug.FreeOSMemory()

	iso, err := isolated(d.w, d.in)
	if err != nil {
		return d.report(), err
	}
	for k, v := range iso {
		m[k] = v
	}
	rep := d.report()
	rep.Metrics = m
	return rep, nil
}

// procs is the run's GOMAXPROCS: one core fewer than the machine has, at
// least one. On a shared 2-core VM a competing process on one core cut
// fanin-mux by a third and bulk-stream by a quarter at GOMAXPROCS=2, and
// moved neither at GOMAXPROCS=1: a run that needs every core measures its
// neighbours.
func procs() int { return max(1, runtime.NumCPU()-1) }

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func printReport(f *os.File, name string, seed uint64, rep report) {
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(f, "%s seed=%d: %d calls attempted, %d failed, correct=%v\n", name, seed, rep.Attempted, rep.Failed, rep.Correct)
	if rep.note != "" {
		fmt.Fprintln(f, "  "+rep.note)
	}
	for _, k := range keys {
		fmt.Fprintf(f, "  %-32s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	b, _ := json.Marshal(rep) // a map of plain numbers always marshals
	fmt.Fprintln(f, string(b))
}
