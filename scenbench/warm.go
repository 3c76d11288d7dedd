package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/diffusion"
	"repro/internal/rng"
	"repro/internal/server"
)

// serveWarm is the reuse path: resident RR collections for a fixed set
// of ε keys, queried at a new larger k (extend), at a smaller k
// (answered from resident sets), as an exact repeat (result cache), as a
// shared-key batch, and scraped once per round. It never updates the
// graph and has no WAL or spill directory, so it bypasses evolve, wal
// and diskrr.
type serveWarm struct {
	serveBase
	log []warmRequest
}

// warmEps are the ε keys with resident collections; round r works on
// key r mod len(warmEps).
var warmEps = []float64{0.2, 0.25, 0.3}

const (
	// warmK0 is the k the warm-up builds each key's collection at; the
	// j-th round on a key asks for warmK0+j, one past the previous
	// largest, so its θ exceeds the resident collection.
	warmK0 = 10
	// warmSmallK is answered from resident sets (θ well below warmK0's)
	// and, with a fresh seed each round, re-runs KPT estimation.
	warmSmallK = 3
)

// warmBatchK are the items of a round's batch: one key, fresh seeds.
var warmBatchK = []int{4, 6, 8}

// warmRequest is one logged maximize-shaped request for the answer check.
type warmRequest struct {
	class string
	req   []server.MaximizeRequest // one item, or a batch
	resp  []server.MaximizeResponse
}

func newServeWarm(cfg runConfig) workload { return &serveWarm{serveBase: serveBase{cfg: cfg}} }

func (w *serveWarm) classes() []string {
	return []string{"warm_newk_ms", "warm_smallk_ms", "hit_ms", "batch_ms", "scrape_ms"}
}

// keySeed is the query seed of the newk/hit stream of one ε key: fixed,
// so θ grows with k alone and the repeat is an exact cache hit.
func (w *serveWarm) keySeed(i int) uint64 { return seedFor(w.cfg.seed, "key", i) }

func (w *serveWarm) cycle() int { return len(warmEps) }

func (w *serveWarm) setup() error {
	if err := w.writeGraph(); err != nil {
		return err
	}
	w.close()
	srv, err := start(w.config(nil))
	if err != nil {
		return err
	}
	w.srv = srv
	for i, eps := range warmEps {
		seed := w.keySeed(i)
		req := server.MaximizeRequest{Dataset: dataset, K: warmK0, Epsilon: eps, Seed: &seed}
		if _, err := call(context.Background(), srv, "POST", "/v1/maximize", req, nil); err != nil {
			return err
		}
	}
	_, err = call(context.Background(), srv, "GET", "/metrics", nil, nil)
	return err
}

func (w *serveWarm) round(r int, p *phase) error {
	i := r % len(warmEps)
	eps := warmEps[i]
	j := r/len(warmEps) + 1

	kseed := w.keySeed(i)
	newk := server.MaximizeRequest{Dataset: dataset, K: warmK0 + j, Epsilon: eps, Seed: &kseed}
	w.maximize(p, "warm_newk_ms", newk)

	sseed := seedFor(w.cfg.seed, "smallk", r)
	w.maximize(p, "warm_smallk_ms", server.MaximizeRequest{Dataset: dataset, K: warmSmallK, Epsilon: eps, Seed: &sseed})

	w.maximize(p, "hit_ms", newk)

	var batch server.BatchRequest
	for n, k := range warmBatchK {
		s := seedFor(w.cfg.seed, "batch", r*len(warmBatchK)+n)
		batch.Queries = append(batch.Queries, server.MaximizeRequest{Dataset: dataset, K: k, Epsilon: eps, Seed: &s})
	}
	var out server.BatchResponse
	if w.send(p, "batch_ms", true, "POST", "/v1/query/batch", batch, &out) {
		logged := warmRequest{class: "batch_ms", req: batch.Queries}
		for _, it := range out.Results {
			if it.Result == nil {
				p.failed++
				fmt.Fprintln(os.Stderr, "scenbench: batch item failed:", it.Error)
				continue
			}
			countReuse(p, it.Result)
			logged.resp = append(logged.resp, *it.Result)
		}
		w.log = append(w.log, logged)
	}

	w.scrape(p)
	return nil
}

func (w *serveWarm) maximize(p *phase, class string, req server.MaximizeRequest) {
	var resp server.MaximizeResponse
	if w.send(p, class, true, "POST", "/v1/maximize", req, &resp) {
		countReuse(p, &resp)
		w.log = append(w.log, warmRequest{class: class, req: []server.MaximizeRequest{req}, resp: []server.MaximizeResponse{resp}})
	}
}

// check answers one logged request of every class, chosen by the seed,
// on a fresh server with the same Config that sees that request first.
func (w *serveWarm) check(p *phase) (int, int, error) {
	pick := rng.New(seedFor(w.cfg.seed, "check", 0))
	checked, mismatched := 0, 0
	for _, class := range []string{"warm_newk_ms", "warm_smallk_ms", "hit_ms", "batch_ms"} {
		var of []warmRequest
		for _, l := range w.log {
			if l.class == class {
				of = append(of, l)
			}
		}
		if len(of) == 0 {
			continue
		}
		l := of[pick.Intn(len(of))]
		ref, err := start(w.config(nil))
		if err != nil {
			return 0, 0, err
		}
		var got []server.MaximizeResponse
		if class != "batch_ms" {
			var resp server.MaximizeResponse
			_, err = call(context.Background(), ref, "POST", "/v1/maximize", l.req[0], &resp)
			got = append(got, resp)
		} else {
			var out server.BatchResponse
			_, err = call(context.Background(), ref, "POST", "/v1/query/batch", server.BatchRequest{Queries: l.req}, &out)
			for _, it := range out.Results {
				if it.Result != nil {
					got = append(got, *it.Result)
				}
			}
		}
		ref.Close()
		checked++
		if err != nil || !sameAnswers(l.resp, got) {
			mismatched++
			fmt.Fprintf(os.Stderr, "scenbench: serve-warm %s answer differs from a cold server's (%v)\n", class, err)
		}
	}
	return checked, mismatched, nil
}

func sameAnswers(a, b []server.MaximizeResponse) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameAnswer(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// replay runs the layer replays on the IC-weighted served graph at the
// last new-k query's k and θ. Sampling and selection inside the server
// are measured by its spans (rr.extend, kpt.*, select).
func (w *serveWarm) replay(p *phase, l layerReport) error {
	g, err := w.graphLoad(l)
	if err != nil {
		return err
	}
	for i := len(w.log) - 1; i >= 0; i-- {
		if q := w.log[i]; q.class == "warm_newk_ms" {
			return replayCollection(g, diffusion.NewIC(), q.req[0].K, q.resp[0].Theta, *q.req[0].Seed, w.cfg.dir, l)
		}
	}
	return fmt.Errorf("no new-k query completed")
}
