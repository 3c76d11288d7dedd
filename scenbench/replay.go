package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/diffusion"
	"repro/internal/diskrr"
	"repro/internal/graph"
	"repro/internal/maxcover"
)

// replayCollection times the sampling, max-cover and spill layers on one
// of the workload's own queries: θ RR sets on its graph, greedy cover at
// its k, a recount, and a spill write and read of the collection. Every
// workload runs it, so these layers are measured on each workload's graph.
func replayCollection(g *graph.Graph, model diffusion.Model, k int, theta int64, seed uint64, dir string, l layerReport) error {
	const workers = 2
	t0 := time.Now()
	col := diffusion.SampleCollection(g, model, theta, diffusion.SampleOptions{Workers: workers, Seed: seed})
	l.set("diffusion.sample_us_per_set", 1000*msSince(t0)/float64(theta), int(theta))
	t0 = time.Now()
	cover := maxcover.GreedyWorkers(g.N(), col, k, workers)
	l.set("maxcover.greedy_ms", msSince(t0), 1)
	t0 = time.Now()
	covered := maxcover.CountCoveredWorkers(g.N(), col, cover.Seeds, workers)
	l.set("maxcover.count_covered_ms", msSince(t0), 1)
	if covered != cover.Covered {
		return fmt.Errorf("maxcover: greedy covered %d, recount %d", cover.Covered, covered)
	}

	// The spill format cross-checks Σwidths against the collection's
	// TotalWidth; spread it evenly — the replay times bytes moved.
	widths := make([]int64, col.Count())
	n := int64(len(widths))
	for i := range widths {
		widths[i] = col.TotalWidth / n
		if int64(i) < col.TotalWidth%n {
			widths[i]++
		}
	}
	path := filepath.Join(dir, "replay.spill")
	t0 = time.Now()
	if _, err := diskrr.WriteSpill(path, diskrr.SpillHeader{Seed: seed}, col, widths); err != nil {
		return err
	}
	l.set("diskrr.write_ms", msSince(t0), 1)
	t0 = time.Now()
	_, back, _, err := diskrr.ReadSpill(path)
	if err != nil {
		return err
	}
	l.set("diskrr.read_ms", msSince(t0), 1)
	if back.Count() != col.Count() || back.TotalNodes() != col.TotalNodes() {
		return fmt.Errorf("diskrr: read back %d sets / %d nodes, wrote %d / %d", back.Count(), back.TotalNodes(), col.Count(), col.TotalNodes())
	}
	return os.Remove(path)
}
