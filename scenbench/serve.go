package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/server"
)

// The server workloads share one dataset: a seeded Barabási–Albert graph
// (20k nodes, 8 attachments) written as an edge list and served as a
// file: dataset, IC model, Workers=2, tracing off (TraceRing −1). The
// client calls Server.ServeHTTP in-process, so no socket or scheduler
// sits between client and server.
const (
	serveNodes   = 20000
	serveAttach  = 8
	serveWorkers = 2
	dataset      = "g"
)

// serveBase holds what both server workloads share: the generated edge
// list, the server of the current setup, and the request helper.
type serveBase struct {
	cfg  runConfig
	path string
	srv  *server.Server
}

func (b *serveBase) writeGraph() error {
	if b.path != "" {
		return nil
	}
	g := gen.BarabasiAlbert(serveNodes, serveAttach, rng.New(b.cfg.seed))
	b.path = filepath.Join(b.cfg.dir, "serve.txt")
	return writeEdgeList(b.path, g)
}

// config is the server configuration of the workload; extra sets the
// workload-specific fields.
func (b *serveBase) config(extra func(*server.Config)) server.Config {
	c := server.Config{
		Datasets:  []server.DatasetSpec{{Name: dataset, Source: "file:" + b.path, Seed: b.cfg.seed}},
		Workers:   serveWorkers,
		TraceRing: -1,
		Seed:      b.cfg.seed,
	}
	if extra != nil {
		extra(&c)
	}
	return c
}

// start builds a server and loads its dataset (WarmDatasets builds the
// graph the first query would otherwise pay for).
func start(c server.Config) (*server.Server, error) {
	s, err := server.New(c)
	if err != nil {
		return nil, err
	}
	if _, err := s.WarmDatasets(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// call sends one request through ServeHTTP and decodes a 2xx body into
// out. The latency covers ServeHTTP alone.
func call(ctx context.Context, s *server.Server, method, path string, body, out any) (float64, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(buf)
	}
	req := httptest.NewRequestWithContext(ctx, method, path, rd)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	s.ServeHTTP(rec, req)
	ms := msSince(t0)
	if rec.Code/100 != 2 {
		return ms, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return ms, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return ms, nil
}

// send runs one scheduled request of a class, tracing it in traced
// rounds, and books it. A non-2xx answer counts as failed.
func (b *serveBase) send(p *phase, class string, maximizeShaped bool, method, path string, body, out any) bool {
	ctx, tr := p.begin(context.Background())
	ms, err := call(ctx, b.srv, method, path, body, out)
	p.end(tr, true)
	p.record(class, ms, maximizeShaped, err == nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenbench:", err)
	}
	return err == nil
}

// countReuse books the response counters behind server.cache_hit_ratio
// and server.rr_reuse_ratio.
func countReuse(p *phase, r *server.MaximizeResponse) {
	p.lookups++
	if r.Cached {
		p.hits++
		return
	}
	p.reused += r.RRSetsReused
	p.sampled += r.RRSetsSampled
}

// sameAnswer compares the answer fields of two responses: everything a
// client consumes, nothing that reports how the server got there.
func sameAnswer(a, b *server.MaximizeResponse) bool {
	return reflect.DeepEqual(a.Seeds, b.Seeds) && a.Theta == b.Theta && a.KptStar == b.KptStar &&
		a.KptPlus == b.KptPlus && a.CoverageFraction == b.CoverageFraction &&
		a.SpreadEstimate == b.SpreadEstimate && a.GraphVersion == b.GraphVersion
}

// scrape is the operator traffic of a round: GET /v1/stats and GET
// /metrics, timed together.
func (b *serveBase) scrape(p *phase) {
	ctx, tr := p.begin(context.Background())
	ms1, err1 := call(ctx, b.srv, "GET", "/v1/stats", nil, nil)
	ms2, err2 := call(ctx, b.srv, "GET", "/metrics", nil, nil)
	p.end(tr, true)
	ok := err1 == nil && err2 == nil
	p.record("scrape_ms", ms1+ms2, false, ok)
	if !ok {
		fmt.Fprintln(os.Stderr, "scenbench: scrape:", err1, err2)
	}
}

func (b *serveBase) close() {
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
}

// graphLoad times the edge-list load of the served graph (graph.load_ms)
// and returns it with the IC weights the server assigns.
func (b *serveBase) graphLoad(l layerReport) (*graph.Graph, error) {
	t0 := time.Now()
	g, err := loadEdgeList(b.path)
	if err != nil {
		return nil, err
	}
	l.set("graph.load_ms", msSince(t0), 1)
	graph.AssignWeightedCascade(g)
	return g, nil
}
