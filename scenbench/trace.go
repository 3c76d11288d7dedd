package main

import (
	"context"
	"sort"
	"time"

	"repro/internal/obs"
)

// phase records the timed phase of one run: per-class latencies, the
// maximize-shaped latencies behind query_p90_ms, failures, the heap
// peak, and — in a traced run — the spans of every traced request.
type phase struct {
	// traced marks the rounds of a traced run that carry a trace (odd
	// schedule cycles — even cycles run untraced, so the two halves give
	// obs.trace_overhead_frac).
	traced bool

	classes  map[string][]float64
	maximize []float64
	ops      int
	failed   int
	elapsed  time.Duration
	heap     heapPeak
	rt0, rt1 runtimeSample

	plainOps, tracedOps   int
	plainTime, tracedTime time.Duration

	// Response counters of the server workloads (all rounds).
	lookups, hits   int
	reused, sampled int64

	spans        map[string]*spanStat
	serverReqs   int
	serverSelfMs float64
}

// spanStat aggregates one span name over the traced requests.
type spanStat struct {
	n     int
	ms    float64
	attrs map[string]float64
}

func newPhase() *phase {
	return &phase{classes: map[string][]float64{}, spans: map[string]*spanStat{}}
}

// record books one completed operation of a scenario class.
func (p *phase) record(class string, ms float64, maximizeShaped, ok bool) {
	p.ops++
	if !ok {
		p.failed++
	} else {
		p.classes[class] = append(p.classes[class], ms)
		if maximizeShaped {
			p.maximize = append(p.maximize, ms)
		}
	}
}

// begin returns the context for one operation: traced rounds attach a
// fresh obs.Trace, which the program's existing spans record into.
func (p *phase) begin(ctx context.Context) (context.Context, *obs.Trace) {
	if !p.traced {
		return ctx, nil
	}
	tr := obs.NewTrace("scenbench")
	return obs.WithTrace(ctx, tr), tr
}

// end folds a finished operation's trace into the per-span aggregates.
// For requests served through ServeHTTP it also books the server's self
// time: the request's duration minus the union of its top-level spans.
func (p *phase) end(tr *obs.Trace, viaServer bool) {
	if tr == nil {
		return
	}
	tr.Finish()
	snap := tr.Snapshot()
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, s := range snap.Spans {
		p.addSpan(s.Name, s)
		// rr.extend also samples KPT batches from scratch (from 0);
		// only an extension of a resident collection is "extend".
		if from, ok := s.Attrs["from"].(int64); ok && s.Name == "rr.extend" && from > 0 {
			p.addSpan(residentExtend, s)
		}
		ivs = append(ivs, iv{s.StartMs, s.StartMs + s.DurationMs})
	}
	if !viaServer {
		return
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, hi := 0.0, -1.0
	for _, v := range ivs {
		if v.lo > hi {
			covered += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			covered += v.hi - hi
			hi = v.hi
		}
	}
	p.serverReqs++
	p.serverSelfMs += snap.ElapsedMs - covered
}

// residentExtend aggregates the rr.extend spans that grow a resident
// collection past its current size.
const residentExtend = "rr.extend(resident)"

func (p *phase) addSpan(name string, s obs.SpanSnapshot) {
	st := p.spans[name]
	if st == nil {
		st = &spanStat{attrs: map[string]float64{}}
		p.spans[name] = st
	}
	st.n++
	st.ms += s.DurationMs
	for k, v := range s.Attrs {
		switch x := v.(type) {
		case int64:
			st.attrs[k] += float64(x)
		case float64:
			st.attrs[k] += x
		}
	}
}

// spanMean is the mean duration of a span name (0 when it never ran).
func (p *phase) spanMean(name string) float64 {
	if st := p.spans[name]; st != nil && st.n > 0 {
		return st.ms / float64(st.n)
	}
	return 0
}

// spanAttrMean is the mean of a numeric span attribute per span.
func (p *phase) spanAttrMean(name, attr string) float64 {
	if st := p.spans[name]; st != nil && st.n > 0 {
		return st.attrs[attr] / float64(st.n)
	}
	return 0
}

// perLayer lists the per-layer metrics of BENCHMARK.json in output
// order. Every workload reports all of them; a layer the workload never
// reaches reports 0 with sample count 0.
var perLayer = []struct{ name, unit string }{
	{"server.self_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.rr_store_ms", "ms"},
	{"server.rr_reuse_ratio", "ratio"},
	{"tim.kpt_estimate_ms", "ms"},
	{"tim.kpt_iterations", "count"},
	{"tim.kpt_refine_ms", "ms"},
	{"tim.select_ms", "ms"},
	{"diffusion.extend_ms", "ms"},
	{"diffusion.extend_sets", "count"},
	{"diffusion.extend_us_per_set", "us"},
	{"diffusion.sample_us_per_set", "us"},
	{"maxcover.greedy_ms", "ms"},
	{"maxcover.count_covered_ms", "ms"},
	{"evolve.repair_ms", "ms"},
	{"evolve.repaired_sets", "count"},
	{"evolve.apply_us", "us"},
	{"wal.append_us", "us"},
	{"diskrr.promote_ms", "ms"},
	{"diskrr.demote_ms", "ms"},
	{"diskrr.spill_mb", "MiB"},
	{"diskrr.write_ms", "ms"},
	{"diskrr.read_ms", "ms"},
	{"tiered.gate_wait_ms", "ms"},
	{"graph.load_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"obs.trace_overhead_frac", "fraction"},
}

// layerReport collects the per-layer metrics of a traced run by name.
type layerReport map[string]metric

func (l layerReport) set(name string, v float64, n int) {
	l[name] = newMetric(name, "", v, n)
}

// ordered returns every per-layer metric in perLayer order.
func (l layerReport) ordered() []metric {
	out := make([]metric, 0, len(perLayer))
	for _, pl := range perLayer {
		m := l[pl.name]
		m.Name, m.Unit = pl.name, pl.unit
		out = append(out, m)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers derives the span- and runtime-based per-layer metrics; the
// workload's replay has already added the replayed ones.
func (p *phase) layers(l layerReport) {
	n := func(name string) int {
		if st := p.spans[name]; st != nil {
			return st.n
		}
		return 0
	}
	l.set("server.self_ms", ratio(p.serverSelfMs, float64(p.serverReqs)), p.serverReqs)
	l.set("server.cache_hit_ratio", ratio(float64(p.hits), float64(p.lookups)), p.lookups)
	l.set("server.rr_store_ms", p.spanMean("rr.store"), n("rr.store"))
	l.set("server.rr_reuse_ratio", ratio(float64(p.reused), float64(p.reused+p.sampled)), p.lookups)
	l.set("tim.kpt_estimate_ms", p.spanMean("kpt.estimate"), n("kpt.estimate"))
	l.set("tim.kpt_iterations", p.spanAttrMean("kpt.estimate", "iterations"), n("kpt.estimate"))
	l.set("tim.kpt_refine_ms", p.spanMean("kpt.refine"), n("kpt.refine"))
	l.set("tim.select_ms", p.spanMean("select"), n("select"))

	ext := p.spans[residentExtend]
	var extSets, extMs float64
	if ext != nil {
		extSets, extMs = ext.attrs["to"]-ext.attrs["from"], ext.ms
	}
	l.set("diffusion.extend_ms", p.spanMean(residentExtend), n(residentExtend))
	l.set("diffusion.extend_sets", ratio(extSets, float64(n(residentExtend))), n(residentExtend))
	l.set("diffusion.extend_us_per_set", ratio(1000*extMs, extSets), int(extSets))
	l.set("evolve.repair_ms", p.spanMean("rr.repair"), n("rr.repair"))
	l.set("evolve.repaired_sets", p.spanAttrMean("rr.repair", "repaired"), n("rr.repair"))
	l.set("diskrr.promote_ms", p.spanMean("rr.promote"), n("rr.promote"))
	l.set("diskrr.demote_ms", p.spanMean("rr.demote"), n("rr.demote"))
	l.set("diskrr.spill_mb", p.spanAttrMean("rr.demote", "bytes")/(1<<20), n("rr.demote"))
	l.set("tiered.gate_wait_ms", p.spanMean("gate.wait"), n("gate.wait"))

	l.set("runtime.gc_cycles", float64(p.rt1.gcCycles-p.rt0.gcCycles), p.ops)
	l.set("runtime.alloc_mb_per_op", ratio(float64(p.rt1.allocBytes-p.rt0.allocBytes)/(1<<20), float64(p.ops)), p.ops)
	plain := ratio(float64(p.plainOps), p.plainTime.Seconds())
	traced := ratio(float64(p.tracedOps), p.tracedTime.Seconds())
	l.set("obs.trace_overhead_frac", 1-ratio(traced, plain), p.tracedOps)
}
