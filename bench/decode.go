package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/mst"
	"mstadvice/internal/service"
	"mstadvice/internal/sim"
)

// decodeWork is decode-100k: one client asks the HTTP service to
// reconstruct the MST from stored advice, one session at a time. Every
// session decodes a freshly registered id, because the service caches a
// session per epoch.
type decodeWork struct {
	p      *pipeline
	svc    *service.Service
	web    *webServer
	client *http.Client
	weight graph.Weight // mst.Kruskal's total
	next   int
	rounds int // of the last session
}

func (w *decodeWork) setup(r *run) error {
	p, err := buildPipeline(r, filepath.Join(r.cfg.dir, "decode.snap"))
	if err != nil {
		return err
	}
	w.p, w.svc, w.client = p, service.New(), newHTTPClient()
	if err := register(r, w.svc, w.freshID(), p.snap); err != nil {
		return err
	}
	w.web, err = startWeb(w.svc)
	return err
}

func (w *decodeWork) freshID() string {
	w.next++
	return fmt.Sprintf("d%d", w.next)
}

// prepare computes the reference MST weight and runs one discarded
// session on the id setup registered.
func (w *decodeWork) prepare(r *run) error {
	tree, err := mst.Kruskal(w.p.g)
	if err != nil {
		return err
	}
	w.weight = w.p.g.TotalWeight(tree)
	if err := checkSnapshot(r, w.p.path); err != nil {
		return err
	}
	_, _, err = w.session(r, nil, fmt.Sprintf("d%d", w.next))
	return err
}

// session runs one decode over HTTP and checks the reply after the timer
// stops; it returns the session's wall and the reply's size.
func (w *decodeWork) session(r *run, tr *tracer, id string) (time.Duration, int, error) {
	req, err := http.NewRequest(http.MethodGet, w.web.base+"/v1/graphs/"+id+"/decode", nil)
	if err != nil {
		return 0, 0, err
	}
	var sess service.Session
	runtime.GC() // every session starts from the same heap
	t0 := time.Now()
	op := tr.start(opSpan, 0)
	sp := tr.start("http.decode", op)
	req.Header.Set(parentHeader, strconv.Itoa(sp))
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(body, &sess)
	}
	tr.end(sp)
	tr.end(op)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	w.svc.Drop(id)
	w.rounds = sess.Rounds
	r.check(resp.StatusCode == http.StatusOK && sess.Verified && sess.VerifyErr == "",
		"decode %s: status %d verified=%v %s", id, resp.StatusCode, sess.Verified, sess.VerifyErr)
	r.check(sess.MSTWeight == w.weight && sess.Root == root && len(sess.ParentPorts) == w.p.g.N(),
		"decode %s: weight %d root %d over %d nodes, Kruskal says weight %d", id, sess.MSTWeight, sess.Root, len(sess.ParentPorts), w.weight)
	return d, len(body), nil
}

func (w *decodeWork) phase(r *run, tr *tracer) (*phaseOut, error) {
	w.web.tr.Store(tr)
	defer w.web.tr.Store(nil)
	out := newPhaseOut()
	bytes := 0
	end := r.deadline()
	for len(out.lat) < minOps || time.Now().Before(end) {
		id := w.freshID()
		if err := w.svc.Register(id, w.p.snap); err != nil {
			return nil, err
		}
		d, n, err := w.session(r, tr, id)
		if err != nil {
			return nil, err
		}
		out.lat = append(out.lat, d)
		bytes = n
	}
	out.detail.set("decode_s", median(durs(out.lat, time.Second)), "s")
	out.detail.set("decode_rounds", float64(w.rounds), "rounds")
	out.layers.set("http.decode_bytes", float64(bytes), "B")
	return out, nil
}

// probeReps is how many times the decode probe repeats its three calls.
const probeReps = 3

// probe splits a decode into its layers by calling each directly: the
// in-process DecodeSession, then the simulator and the verifier on
// their own. HTTP's share is the traced session minus DecodeSession. The
// three calls repeat probeReps times back to back and each result is a
// median, so a slow spell on the host shifts all three alike.
func (w *decodeWork) probe(r *run, _, traced *phaseOut, layers metricSet) error {
	var svcS, simS, verS, rest []float64
	var res *sim.Result
	for range probeReps {
		id := w.freshID()
		if err := w.svc.Register(id, w.p.snap); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		sess, err := w.svc.DecodeSession(context.Background(), id)
		svcDecode := time.Since(t0).Seconds()
		w.svc.Drop(id)
		if err != nil {
			return err
		}
		r.check(sess.Verified && sess.MSTWeight == w.weight, "in-process decode: verified=%v weight %d", sess.Verified, sess.MSTWeight)

		runtime.GC()
		t0 = time.Now()
		res, err = sim.NewNetwork(w.p.g).Run(core.Scheme{}.NewNode, w.p.advice, sim.Options{})
		simRun := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		runtime.GC()
		t0 = time.Now()
		verr := mst.VerifyRooted(w.p.g, res.ParentPorts, root)
		verify := time.Since(t0).Seconds()
		r.check(verr == nil, "direct decode does not verify: %v", verr)

		svcS, simS, verS = append(svcS, svcDecode), append(simS, simRun), append(verS, verify)
		rest = append(rest, svcDecode-simRun-verify)
	}

	decodeS := median(durs(traced.lat, time.Second))
	svcDecode := median(svcS)
	layers.set("service.decode_s", svcDecode, "s")
	layers.set("http.decode_overhead_s", decodeS-svcDecode, "s")
	layers.set("sim.run_s", median(simS), "s")
	layers.set("sim.rounds", float64(res.Rounds), "count")
	layers.set("sim.messages", float64(res.Messages), "count")
	layers.set("sim.msg_bits_total", float64(res.TotalBits), "bits")
	layers.set("sim.msg_bits_max", float64(res.MaxMsgBits), "bits")
	layers.set("sim.ns_per_round", median(simS)*1e9/math.Max(1, float64(res.Rounds)), "ns")
	layers.set("mst.verify_s", median(verS), "s")
	// The stages are HTTP, the simulator and the verifier; what
	// DecodeSession spends beyond the last two is unaccounted.
	layers.set("trace.unaccounted_frac", median(rest)/decodeS, "frac")
	warnUnaccounted(r, layers)
	return nil
}

func (w *decodeWork) base() *pipeline { return w.p }

func (w *decodeWork) close() {
	if w.web != nil {
		w.web.close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
