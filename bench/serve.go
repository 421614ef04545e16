package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mstadvice/internal/replica"
	"mstadvice/internal/service"
)

// httpReadSpan is the client span of one HTTP advice read.
const httpReadSpan = "http.advice"

// serveWork is serve-read-1m: two closed-loop clients read a seeded
// permutation of every node, one over the replica wire protocol and one
// over HTTP keep-alive, against one read-only snapshot.
type serveWork struct {
	p     *pipeline
	svc   *service.Service
	wire  *replica.Server
	web   *webServer
	order []int
}

const serveID = "s"

func (w *serveWork) setup(r *run) error {
	p, err := buildPipeline(r, filepath.Join(r.cfg.dir, "serve.snap"))
	if err != nil {
		return err
	}
	w.p, w.svc = p, service.New()
	if err := register(r, w.svc, serveID, p.snap); err != nil {
		return err
	}
	w.wire = replica.NewServer(w.svc, nil, replica.ServerOptions{})
	if err := w.wire.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	if w.web, err = startWeb(w.svc); err != nil {
		return err
	}
	w.order = nodeOrder(p.g.N(), r.cfg.seed)
	return nil
}

func (w *serveWork) prepare(r *run) error { return checkSnapshot(r, w.p.path) }

func (w *serveWork) phase(r *run, tr *tracer) (*phaseOut, error) {
	w.web.tr.Store(tr)
	defer w.web.tr.Store(nil)
	cli, err := replica.NewClient([]string{w.wire.Addr()}, replica.ClientOptions{})
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	n := len(w.order)
	start := time.Now()
	end := r.deadline()
	var wireLat, httpLat []time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; time.Now().Before(end); i++ {
			v := w.order[i%n]
			t0 := time.Now()
			ans, err := cli.Advice(context.Background(), serveID, v)
			t1 := time.Now()
			wireLat = append(wireLat, t1.Sub(t0))
			r.check(err == nil && ans.Epoch == 0 && ans.Bits.Equal(w.p.advice[v]), "wire read of node %d: %v", v, err)
			t2 := time.Now()
			tr.add("replica.advice", opSpan, t1.Sub(t0))
			tr.add("harness.check", opSpan, t2.Sub(t1))
			tr.add(opSpan, "", t2.Sub(t0))
		}
	}()
	go func() {
		defer wg.Done()
		for i := n / 2; time.Now().Before(end); i++ {
			v := w.order[i%n]
			t0 := time.Now()
			reply, status, err := w.httpRead(hc, v)
			t1 := time.Now()
			httpLat = append(httpLat, t1.Sub(t0))
			a := w.p.advice[v]
			r.check(err == nil && status == http.StatusOK && reply.Node == v && reply.Epoch == 0 &&
				reply.Len == a.Len() && reply.Bits == a.String(), "HTTP read of node %d: status %d %v", v, status, err)
			t2 := time.Now()
			tr.add(httpReadSpan, opSpan, t1.Sub(t0))
			tr.add("harness.check", opSpan, t2.Sub(t1))
			tr.add(opSpan, "", t2.Sub(t0))
		}
	}()
	wg.Wait()
	wall := time.Since(start)
	out := newPhaseOut()
	out.lat = append(append(out.lat, wireLat...), httpLat...)
	setReads(out, "wire", wireLat)
	setReads(out, "http", httpLat)
	out.detail.set("read_qps", float64(len(out.lat))/wall.Seconds(), "reads/s")
	readAttempts(cli, []string{w.wire.Addr()}, len(wireLat), out.layers)
	return out, nil
}

// httpRead is one GET of a node's advice, reply parsed.
func (w *serveWork) httpRead(hc *http.Client, v int) (service.AdviceReply, int, error) {
	var reply service.AdviceReply
	resp, err := hc.Get(w.web.base + "/v1/graphs/" + serveID + "/advice?node=" + strconv.Itoa(v))
	if err != nil {
		return reply, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		err = json.Unmarshal(body, &reply)
	}
	return reply, resp.StatusCode, err
}

// setReads records one transport's read latency median and p99 in µs,
// and its sample count.
func setReads(out *phaseOut, transport string, lat []time.Duration) {
	us := durs(lat, time.Microsecond)
	out.detail.set(transport+"_read_p50_us", median(us), "us")
	out.detail.set(transport+"_read_p99_us", percentile(us, 0.99), "us")
	out.detail.set(transport+"_read_samples", float64(len(us)), "count")
}

// readAttempts reads the wire client's attempt counters: how many
// requests a read took, and how many answers were refused as stale.
func readAttempts(cli *replica.Client, endpoints []string, reads int, layers metricSet) {
	var attempts, stale uint64
	for _, ep := range endpoints {
		for _, outcome := range []string{"ok", "stale", "degraded", "not_found", "timeout", "net_error", "bad"} {
			v, _ := cli.Metrics().CounterValue("replica_client_attempts_total", "endpoint", ep, "outcome", outcome)
			attempts += v
			if outcome == "stale" {
				stale += v
			}
		}
	}
	layers.set("replica.attempts_per_read", float64(attempts)/float64(max(reads, 1)), "ratio")
	layers.set("replica.stale_frac", float64(stale)/float64(max(attempts, 1)), "frac")
}

// probe sets what the wire and HTTP transports add to an in-process
// read, from the untraced phase's medians.
func (w *serveWork) probe(r *run, plain, _ *phaseOut, layers metricSet) error {
	inproc := layers["service.advice_ns_p50"].Value / 1e3
	layers.set("replica.wire_overhead_us_p50", plain.detail["wire_read_p50_us"].Value-inproc, "us")
	layers.set("http.read_overhead_us_p50", plain.detail["http_read_p50_us"].Value-inproc, "us")
	return nil
}

func (w *serveWork) base() *pipeline { return w.p }

func (w *serveWork) close() {
	if w.web != nil {
		w.web.close()
	}
	if w.wire != nil {
		w.wire.Close()
	}
}
