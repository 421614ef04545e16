package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"mstadvice/internal/graph"
	"mstadvice/internal/service"
)

// minOps is the fewest operations a timed phase of slow operations
// (builds, decode sessions) runs, however long they take.
const minOps = 3

// unaccountedLimit is the largest share of an end-to-end wall the stage
// spans of build-1m and decode-100k should leave unexplained.
const unaccountedLimit = 0.05

// buildWork is build-1m: the graph is set up once, and each operation
// turns it into a served snapshot — oracle, durable save, reopen,
// register under a fresh id.
type buildWork struct {
	g      *graph.Graph
	svc    *service.Service
	p      *pipeline
	iter   int
	lastID string
}

func (w *buildWork) setup(r *run) error {
	g, err := generate(r)
	w.g, w.svc = g, service.New()
	return err
}

// prepare runs one discarded build, so the timed ones start warm.
func (w *buildWork) prepare(r *run) error {
	_, err := w.build(r, nil)
	return err
}

func (w *buildWork) build(r *run, tr *tracer) (time.Duration, error) {
	path := filepath.Join(r.cfg.dir, "build.snap")
	id := fmt.Sprintf("g%d", w.iter)
	w.iter++
	runtime.GC() // every build starts from the same heap
	t0 := time.Now()
	op := tr.start(opSpan, 0)
	sp := tr.start("core.oracle", op)
	adv, err := runOracle(r, w.g)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.start("store.save", op)
	err = save(r, path, w.g, adv)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.start("store.open", op)
	snap, err := open(r, path)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.start("service.register", op)
	err = register(r, w.svc, id, snap)
	tr.end(sp)
	tr.end(op)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}

	if err := checkSnapshot(r, path); err != nil {
		return 0, err
	}
	ep, err := w.svc.Epoch(id)
	r.check(err == nil && sameAdvice(ep.Advice, adv), "build %s: served advice differs from the oracle's", id)
	if w.lastID != "" {
		w.svc.Drop(w.lastID)
	}
	w.lastID = id
	w.p = &pipeline{g: w.g, advice: adv, snap: snap, path: path}
	return d, nil
}

func (w *buildWork) phase(r *run, tr *tracer) (*phaseOut, error) {
	out := newPhaseOut()
	end := r.deadline()
	for len(out.lat) < minOps || time.Now().Before(end) {
		d, err := w.build(r, tr)
		if err != nil {
			return nil, err
		}
		out.lat = append(out.lat, d)
	}
	out.detail.set("build_s", median(durs(out.lat, time.Second)), "s")
	return out, nil
}

func (w *buildWork) probe(r *run, _, _ *phaseOut, layers metricSet) error {
	warnUnaccounted(r, layers)
	return nil
}

// warnUnaccounted flags a traced run whose stage spans leave more than
// unaccountedLimit of the wall unexplained. It warns instead of failing
// the run: the decode stages are timed in separate calls, and host noise
// alone sometimes moves their sum by more than 5% (README.md), while the
// outputs stay right.
func warnUnaccounted(r *run, layers metricSet) {
	if u := layers["trace.unaccounted_frac"].Value; math.Abs(u) > unaccountedLimit {
		r.warn("stage spans leave %.1f%% of the wall unaccounted (limit %.0f%%)", 100*u, 100*unaccountedLimit)
	}
}

func (w *buildWork) base() *pipeline { return w.p }

func (w *buildWork) close() {}
