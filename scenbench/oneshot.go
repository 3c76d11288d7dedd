package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/tim"
)

// oneshot is the paper's algorithm alone: cold tim.MaximizeContext calls
// on a library-loaded graph, no server. It bypasses the rr-store, the
// result cache, repair, spill and the WAL, so every server-side change
// should leave it unchanged.
type oneshot struct {
	cfg  runConfig
	path string
	ic   *graph.Graph
	lt   *graph.Graph
	// loadMs is the edge-list load of the last setup (graph.load_ms).
	loadMs float64
	calls  []oneshotCall
}

// oneshotShape is one (model, k, ε) entry of the fixed schedule.
type oneshotShape struct {
	lt  bool
	k   int
	eps float64
}

// The schedule runs from KPT-dominated (k=1, ε=0.5: ~75% of the call in
// KPT estimation) to selection-dominated (k=50, ε=0.2: ~95% in node
// selection) on both models. Round r is one call of shape r mod 6 with a
// fresh seed.
var oneshotShapes = []oneshotShape{
	{false, 1, 0.5}, {true, 1, 0.5},
	{false, 10, 0.3}, {true, 10, 0.3},
	{false, 50, 0.2}, {true, 50, 0.2},
}

// Chung-Lu directed, 20k nodes / 160k edges.
const (
	oneshotNodes   = 20000
	oneshotEdges   = 160000
	oneshotWorkers = 2
)

type oneshotCall struct {
	shape oneshotShape
	seed  uint64
	res   *tim.Result
}

func newOneshot(cfg runConfig) workload { return &oneshot{cfg: cfg} }

func (o *oneshot) classes() []string {
	var cs []string
	for _, s := range oneshotShapes {
		cs = append(cs, shapeClass(s))
	}
	return cs
}

// summary names the oneshot scenario metric: cold_ms is the geometric
// mean of the per-shape medians. A pooled median over shapes 10× apart
// would report whichever shape sits in the middle; this keeps the weight
// the schedule gives each shape.
func (o *oneshot) summary() string { return "cold_ms" }

func (o *oneshot) setup() error {
	if o.path == "" {
		g := gen.ChungLuDirected(oneshotNodes, oneshotEdges, 2.4, 2.1, rng.New(o.cfg.seed))
		o.path = filepath.Join(o.cfg.dir, "oneshot.txt")
		if err := writeEdgeList(o.path, g); err != nil {
			return err
		}
	}
	t0 := time.Now()
	ic, err := loadEdgeList(o.path)
	if err != nil {
		return err
	}
	o.loadMs = msSince(t0)
	lt, err := loadEdgeList(o.path)
	if err != nil {
		return err
	}
	graph.AssignWeightedCascade(ic)
	graph.AssignRandomNormalizedLTKeyed(lt, o.cfg.seed+1)
	o.ic, o.lt = ic, lt
	// Warm-up: one call per model absorbs first-use costs (sampler
	// pools, arena growth) that every later call would not pay.
	for _, lt := range []bool{false, true} {
		if _, err := o.maximize(context.Background(), oneshotShape{lt, 1, 0.5}, seedFor(o.cfg.seed, "warmup", 0), oneshotWorkers); err != nil {
			return err
		}
	}
	return nil
}

func (o *oneshot) maximize(ctx context.Context, s oneshotShape, seed uint64, workers int) (*tim.Result, error) {
	g, model := o.ic, diffusion.Model(diffusion.NewIC())
	if s.lt {
		g, model = o.lt, diffusion.NewLT()
	}
	return tim.MaximizeContext(ctx, g, model, tim.Options{K: s.k, Epsilon: s.eps, Workers: workers, Seed: seed})
}

func (o *oneshot) round(r int, p *phase) error {
	s := oneshotShapes[r%len(oneshotShapes)]
	seed := seedFor(o.cfg.seed, "oneshot", r)
	ctx, tr := p.begin(context.Background())
	t0 := time.Now()
	res, err := o.maximize(ctx, s, seed, oneshotWorkers)
	ms := msSince(t0)
	p.end(tr, false)
	if err != nil {
		return err
	}
	p.record(shapeClass(s), ms, true, true)
	o.calls = append(o.calls, oneshotCall{shape: s, seed: seed, res: res})
	return nil
}

func shapeClass(s oneshotShape) string {
	m := "ic"
	if s.lt {
		m = "lt"
	}
	return fmt.Sprintf("cold_ms[%s,k=%d,eps=%g]", m, s.k, s.eps)
}

// check re-runs a deterministic sample of calls at Workers=1: answers
// are specified to be byte-identical for every worker count.
func (o *oneshot) check(p *phase) (int, int, error) {
	pick := rng.New(seedFor(o.cfg.seed, "check", 0))
	mismatched := 0
	const samples = 2
	for i := 0; i < samples; i++ {
		c := o.calls[pick.Intn(len(o.calls))]
		ref, err := o.maximize(context.Background(), c.shape, c.seed, 1)
		if err != nil {
			return 0, 0, err
		}
		if !sameResult(c.res, ref) {
			mismatched++
			fmt.Fprintf(os.Stderr, "scenbench: oneshot %s seed %d differs from its Workers=1 reference\n", shapeClass(c.shape), c.seed)
		}
	}
	return samples, mismatched, nil
}

func sameResult(a, b *tim.Result) bool {
	return reflect.DeepEqual(a.Seeds, b.Seeds) && a.Theta == b.Theta && a.KptStar == b.KptStar &&
		a.KptPlus == b.KptPlus && a.CoverageFraction == b.CoverageFraction && a.SpreadEstimate == b.SpreadEstimate
}

// replay runs the layer replays on the schedule's largest IC call.
func (o *oneshot) replay(p *phase, l layerReport) error {
	l.set("graph.load_ms", o.loadMs, 1)
	var c *oneshotCall
	for i := range o.calls {
		if !o.calls[i].shape.lt && (c == nil || o.calls[i].res.Theta > c.res.Theta) {
			c = &o.calls[i]
		}
	}
	return replayCollection(o.ic, diffusion.NewIC(), c.shape.k, c.res.Theta, c.seed, o.cfg.dir, l)
}

func (o *oneshot) cycle() int { return len(oneshotShapes) }

func (o *oneshot) close() {}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func writeEdgeList(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := graph.WriteEdgeList(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadEdgeList(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(bufio.NewReader(f), false)
}
