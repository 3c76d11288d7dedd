package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/diffusion"
	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/wal"
)

// serveChurn writes beside reads: every round posts a two-edge
// /v1/update, queries the most recently used resident collection (which
// repairs), and queries the spilled one (which promotes it and demotes
// the least recently used). The server has a WAL (default sync) and a
// spill directory, and RRCollections is one below the number of keys,
// so the rr-store cap keeps the heap bounded.
type serveChurn struct {
	serveBase
	setups  int
	updates []server.UpdateRequest // warm-up update first, then one per round
	log     []churnQuery
	// lru, mru and spilled are the key indexes in each tier, mirrored
	// from the rr-store's LRU order so the schedule, not the responses,
	// fixes each request's class.
	lru, mru, spilled int
}

var churnEps = []float64{0.2, 0.25, 0.3}

const churnK = 10

// churnQuery is one logged query with the number of updates applied
// before it, for the answer check.
type churnQuery struct {
	class   string
	updates int
	req     server.MaximizeRequest
	resp    server.MaximizeResponse
}

func newServeChurn(cfg runConfig) workload { return &serveChurn{serveBase: serveBase{cfg: cfg}} }

func (c *serveChurn) classes() []string {
	return []string{"update_ms", "post_update_ms", "promote_ms"}
}

// serverConfig gives each server its own fresh WAL and spill directory.
func (c *serveChurn) serverConfig(tag string) (server.Config, error) {
	dir := filepath.Join(c.cfg.dir, tag)
	if err := os.RemoveAll(dir); err != nil {
		return server.Config{}, err
	}
	return c.config(func(s *server.Config) {
		s.RRCollections = len(churnEps) - 1
		s.WALDir = filepath.Join(dir, "wal")
		s.SpillDir = filepath.Join(dir, "spill")
	}), nil
}

// batch is the deterministic i-th update: two fresh edges between
// seeded random nodes of the original graph.
func (c *serveChurn) batch(i int) server.UpdateRequest {
	r := rng.New(seedFor(c.cfg.seed, "update", i))
	req := server.UpdateRequest{Dataset: dataset}
	for e := 0; e < 2; e++ {
		req.Insert = append(req.Insert, server.UpdateEdge{From: uint32(r.Intn(serveNodes)), To: uint32(r.Intn(serveNodes))})
	}
	return req
}

func (c *serveChurn) cycle() int { return len(churnEps) }

func (c *serveChurn) setup() error {
	if err := c.writeGraph(); err != nil {
		return err
	}
	c.close()
	c.setups++
	conf, err := c.serverConfig(fmt.Sprintf("setup-%d", c.setups))
	if err != nil {
		return err
	}
	srv, err := start(conf)
	if err != nil {
		return err
	}
	c.srv = srv
	// The first update builds the evolving graph and opens the WAL.
	c.updates = []server.UpdateRequest{c.batch(0)}
	if _, err := call(context.Background(), srv, "POST", "/v1/update", c.updates[0], nil); err != nil {
		return err
	}
	// Build every key's collection; the last one demotes the first.
	for i, eps := range churnEps {
		seed := seedFor(c.cfg.seed, "warmup", i)
		req := server.MaximizeRequest{Dataset: dataset, K: churnK, Epsilon: eps, Seed: &seed}
		if _, err := call(context.Background(), srv, "POST", "/v1/maximize", req, nil); err != nil {
			return err
		}
	}
	c.spilled, c.lru, c.mru = 0, 1, 2
	return nil
}

func (c *serveChurn) round(r int, p *phase) error {
	u := c.batch(len(c.updates))
	c.updates = append(c.updates, u)
	c.send(p, "update_ms", false, "POST", "/v1/update", u, nil)

	c.query(p, "post_update_ms", c.mru, r)
	c.query(p, "promote_ms", c.spilled, r)
	c.lru, c.mru, c.spilled = c.mru, c.spilled, c.lru
	return nil
}

func (c *serveChurn) query(p *phase, class string, key, r int) {
	seed := seedFor(c.cfg.seed, class, r)
	req := server.MaximizeRequest{Dataset: dataset, K: churnK, Epsilon: churnEps[key], Seed: &seed}
	var resp server.MaximizeResponse
	if c.send(p, class, true, "POST", "/v1/maximize", req, &resp) {
		countReuse(p, &resp)
		c.log = append(c.log, churnQuery{class: class, updates: len(c.updates), req: req, resp: resp})
	}
}

// check answers one logged query of each query class, chosen by the
// seed, on a fresh server that replays the same update batches first;
// the replayed updates' responses are checked against the graph size.
func (c *serveChurn) check(p *phase) (int, int, error) {
	pick := rng.New(seedFor(c.cfg.seed, "check", 0))
	checked, mismatched := 0, 0
	for _, class := range []string{"post_update_ms", "promote_ms"} {
		var of []churnQuery
		for _, q := range c.log {
			if q.class == class {
				of = append(of, q)
			}
		}
		if len(of) == 0 {
			continue
		}
		q := of[pick.Intn(len(of))]
		conf, err := c.serverConfig("check-" + class)
		if err != nil {
			return 0, 0, err
		}
		ref, err := start(conf)
		if err != nil {
			return 0, 0, err
		}
		var resp server.MaximizeResponse
		var up server.UpdateResponse
		for i := 0; i < q.updates && err == nil; i++ {
			_, err = call(context.Background(), ref, "POST", "/v1/update", c.updates[i], &up)
		}
		if err == nil {
			_, err = call(context.Background(), ref, "POST", "/v1/maximize", q.req, &resp)
		}
		ref.Close()
		checked++
		if err != nil || up.Version != uint64(q.updates) || !sameAnswer(&q.resp, &resp) {
			mismatched++
			fmt.Fprintf(os.Stderr, "scenbench: serve-churn %s answer differs from a cold server's after %d updates (%v)\n", class, q.updates, err)
		}
	}
	return checked, mismatched, nil
}

// replay feeds the workload's own update batches through evolve.Apply
// and a WAL append, then runs the layer replays on the updated graph at
// the last query's k and θ.
func (c *serveChurn) replay(p *phase, l layerReport) error {
	g, err := c.graphLoad(l)
	if err != nil {
		return err
	}
	evg := evolve.New(g, evolve.WeightedCascade{}, evolve.Options{})
	log, _, err := wal.Open(filepath.Join(c.cfg.dir, "replay-wal"), wal.Options{Dataset: dataset})
	if err != nil {
		return err
	}
	defer log.Close()
	var applyMs, appendMs float64
	for _, u := range c.updates {
		b := evolve.Batch{}
		for _, e := range u.Insert {
			b.Inserts = append(b.Inserts, graph.Edge{From: e.From, To: e.To})
		}
		t0 := time.Now()
		v, err := evg.Apply(b)
		applyMs += msSince(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		err = log.Append(wal.Record{Schema: 1, Version: v, Batch: b})
		appendMs += msSince(t0)
		if err != nil {
			return err
		}
	}
	n := len(c.updates)
	l.set("evolve.apply_us", 1000*applyMs/float64(n), n)
	l.set("wal.append_us", 1000*appendMs/float64(n), n)

	q := c.log[len(c.log)-1]
	snap, _ := evg.Snapshot()
	return replayCollection(snap, diffusion.NewIC(), q.req.K, q.resp.Theta, *q.req.Seed, c.cfg.dir, l)
}
