// Command scenbench is the scenario benchmark of the TIM query path. It
// generates its inputs from a seed, drives one workload with a single
// closed-loop client, checks a sample of the answers against cold
// references, and prints every metric with its unit and sample count.
// The last line of its output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics of BENCHMARK.json, or with --trace 1
// the per-layer metrics of a separate traced run. See README.md for the
// workloads, the metric definitions and the layer → metric predictions.
//
// Usage (from the repository root; run.sh builds the binary):
//
//	bash scenbench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
//	bash scenbench/run.sh steady --runs 5 --workloads oneshot,serve-churn
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fault"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// runConfig is one invocation of one workload.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// dir is a private scratch directory inside the checkout for the
	// generated graph, WAL and spill files; removed on exit.
	dir string
}

// workload is one benchmark scenario mix.
type workload interface {
	// setup builds the workload's resident state from scratch: load the
	// generated graph, build the program's state, and run the warm-up
	// that absorbs lazy first-use costs. It is called several times (the
	// median is setup_s); each call replaces the previous state.
	setup() error
	// round runs one round of the fixed schedule.
	round(r int, p *phase) error
	// check re-answers a deterministic sample of the phase's requests
	// against cold references and returns the number of mismatches.
	check(p *phase) (checked, mismatched int, err error)
	// replay times the workload's own inputs through the public
	// functions of the layers it exercises (traced run only).
	replay(p *phase, out layerReport) error
	// classes lists the workload's scenario metrics in schedule order.
	classes() []string
	// cycle is the schedule's period in rounds. A traced run alternates
	// whole cycles with and without tracing, so both halves see the
	// same mix.
	cycle() int
	close()
}

var workloads = map[string]func(cfg runConfig) workload{
	"oneshot":     newOneshot,
	"serve-warm":  newServeWarm,
	"serve-churn": newServeChurn,
}

// setupReps is how many times setup runs; setup_s is their median.
const setupReps = 3

func runMain(args []string) int {
	fs := flag.NewFlagSet("scenbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: oneshot, serve-warm or serve-churn")
	seed := fs.Uint64("seed", 1, "workload seed (same seed, same inputs)")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	inject := fs.String("inject", "", "sensitivity check: arm wal-sleep or rr-sleep")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "scenbench: unknown workload %q\n", *name)
		return 2
	}
	if err := armInjection(*inject); err != nil {
		fmt.Fprintln(os.Stderr, "scenbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	abs, err := filepath.Abs(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenbench:", err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: abs}
	rep, err := run(mk(cfg), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenbench:", err)
		return 1
	}
	rep.print(os.Stdout, cfg.trace)
	return 0
}

// Injected delays for the sensitivity check. Each sleeps and returns
// nil, so the program's behaviour is unchanged apart from time.
const (
	walSleep = 2 * time.Millisecond
	rrSleep  = 100 * time.Millisecond
)

func armInjection(name string) error {
	sleep := func(d time.Duration) fault.Handler {
		return func() error { time.Sleep(d); return nil }
	}
	switch name {
	case "":
	case "wal-sleep":
		fault.Set("wal/append-write", sleep(walSleep))
	case "rr-sleep":
		fault.Set("server/rr-evict-mid-extend", sleep(rrSleep))
	default:
		return fmt.Errorf("unknown injection %q (want wal-sleep or rr-sleep)", name)
	}
	return nil
}

// run sets the workload up, drives its timed phase, checks answers, and
// assembles the report.
func run(w workload, cfg runConfig) (*report, error) {
	defer w.close()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	p := newPhase()
	p.heap.start()
	p.rt0 = readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for r := 0; time.Now().Before(deadline); r++ {
		p.traced = cfg.trace && (r/w.cycle())%2 == 1
		t0 := time.Now()
		ops := p.ops
		if err := w.round(r, p); err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		d := time.Since(t0)
		if p.traced {
			p.tracedTime += d
			p.tracedOps += p.ops - ops
		} else {
			p.plainTime += d
			p.plainOps += p.ops - ops
		}
	}
	p.elapsed = time.Since(start)
	p.rt1 = readRuntime()
	p.heap.stop()

	checked, mismatched, err := w.check(p)
	if err != nil {
		return nil, fmt.Errorf("answer check: %w", err)
	}
	rep := &report{
		attempted: p.ops + checked,
		failed:    p.failed + mismatched,
		checked:   checked,
	}
	rep.correct = rep.failed == 0
	rep.endToEnd = append(rep.endToEnd, newMetric("setup_s", "s", median(setups), len(setups)))
	rep.endToEnd = append(rep.endToEnd, newMetric("ops_per_s", "1/s", float64(p.ops)/p.elapsed.Seconds(), p.ops))
	rep.endToEnd = append(rep.endToEnd, newMetric("heap_peak_mb", "MiB", p.heap.peakMiB(), len(p.heap.live)))
	rep.endToEnd = append(rep.endToEnd, newMetric("query_p90_ms", "ms", quantile(p.maximize, 0.9), len(p.maximize)))
	var meds []float64
	for _, c := range w.classes() {
		xs := p.classes[c]
		m := median(xs)
		meds = append(meds, m)
		rep.scenarios = append(rep.scenarios, newMetric(c, "ms", m, len(xs)))
	}
	rep.endToEnd = append(rep.endToEnd, newMetric("scenario_gmean_ms", "ms", gmean(meds), len(meds)))
	if s, ok := w.(interface{ summary() string }); ok {
		rep.scenarios = append(rep.scenarios, newMetric(s.summary(), "ms", gmean(meds), len(p.maximize)))
	}
	rep.scenarios = append(rep.scenarios, newMetric("failed_frac", "fraction", float64(rep.failed)/float64(rep.attempted), rep.attempted))
	if len(p.maximize) < 100 {
		fmt.Fprintf(os.Stderr, "scenbench: query_p90_ms has %d samples, fewer than the 100 that put ten beyond it\n", len(p.maximize))
	}

	if cfg.trace {
		lr := layerReport{}
		if err := w.replay(p, lr); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		p.layers(lr)
		rep.layers = lr.ordered()
	}
	return rep, nil
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

type report struct {
	attempted, failed, checked int
	correct                    bool
	endToEnd                   []metric // BENCHMARK.json end_to_end
	scenarios                  []metric // per-class medians and failed_frac
	layers                     []metric // BENCHMARK.json per_layer (traced run)
}

// newMetric builds a metric. A value that could not be measured (a
// class whose every request failed, which also fails the run) reads 0,
// as JSON has no NaN.
func newMetric(name, unit string, v float64, n int) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return metric{Name: name, Unit: unit, Value: v, N: n}
}

// print writes one human-readable line per metric, a "detail" line with
// every metric (read by the steady tool), and the result object last.
func (r *report) print(w io.Writer, trace bool) {
	all := append(append([]metric(nil), r.endToEnd...), r.scenarios...)
	if trace {
		all = append(all, r.layers...)
	}
	for _, m := range all {
		fmt.Fprintf(w, "%-34s %14.4f %-8s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "answers checked against cold references: %d, mismatched or failed: %d of %d attempted\n",
		r.checked, r.failed, r.attempted)
	detail, _ := json.Marshal(all)
	fmt.Fprintf(w, "detail %s\n", detail)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	src := r.endToEnd
	if trace {
		src = r.layers
	}
	for _, m := range src {
		out.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", line)
}

// seedFor derives the seed of the i-th request of a stream from the
// workload seed (SplitMix64 finalizer), so every request's randomness is
// fixed by --seed and its position in the schedule.
func seedFor(seed uint64, stream string, i int) uint64 {
	x := seed ^ uint64(i)*0x9e3779b97f4a7c15
	for _, c := range []byte(stream) {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
