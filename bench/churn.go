package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/core"
	"mstadvice/internal/dynamic"
	"mstadvice/internal/graph"
	"mstadvice/internal/mst"
	"mstadvice/internal/obs"
	"mstadvice/internal/replica"
	"mstadvice/internal/service"
)

// churnPeriod spaces the writer's open-loop updates: 5/s, below the
// ≈12 epochs/s at which, on a 2-core host, each epoch's full-snapshot
// encode, fsync, ship and decode saturate and latency grows without
// bound.
const churnPeriod = 200 * time.Millisecond

// lateAfter is how far past its due time a send counts as late.
const lateAfter = time.Millisecond

// catchUp bounds the wait for the follower to publish the last epoch.
const catchUp = 60 * time.Second

const churnID = "c"

// churnWork is churn-100k: a primary with a durable epoch log and a
// wire server, and a follower tailing it with its own log and server.
// An open-loop writer raises one seeded non-tree edge above the current
// maximum weight per update, so the MST never changes and the advisor
// stays on its incremental path; one closed-loop reader reads both
// endpoints over the wire.
type churnWork struct {
	p                 *pipeline
	primary, follower *service.Service
	plog, flog        *replica.Log
	psrv, fsrv        *replica.Server
	stopTail          context.CancelFunc
	tailDone          chan struct{}

	edges   []graph.EdgeID // seeded non-tree edges, raised in turn
	maxW    graph.Weight
	batches []graph.Batch // every batch sent, for the advisor replay
	order   []int

	mu        sync.Mutex
	cond      *sync.Cond
	refs      map[uint64][]*bitstring.BitString // the primary's advice per epoch
	published map[uint64]time.Time              // epoch durable in the primary's log
	visible   map[uint64]time.Time              // epoch published by the follower
}

func (w *churnWork) setup(r *run) error {
	w.refs = make(map[uint64][]*bitstring.BitString)
	w.published = make(map[uint64]time.Time)
	w.visible = make(map[uint64]time.Time)
	w.cond = sync.NewCond(&w.mu)
	p, err := buildPipeline(r, filepath.Join(r.cfg.dir, "churn.snap"))
	if err != nil {
		return err
	}
	w.p = p
	plogPath, flogPath := filepath.Join(r.cfg.dir, "primary.log"), filepath.Join(r.cfg.dir, "follower.log")
	for _, path := range []string{plogPath, flogPath} { // left by an earlier set-up
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
	}

	if w.plog, err = replica.OpenLog(plogPath); err != nil {
		return err
	}
	w.primary = service.New()
	w.primary.OnPublish(func(_ string, ep *service.Epoch) {
		w.mu.Lock()
		w.refs[ep.Seq] = ep.Advice
		w.mu.Unlock()
	})
	w.plog.Attach(w.primary)
	w.primary.OnPublish(func(_ string, ep *service.Epoch) { // runs after the log append
		w.mu.Lock()
		w.published[ep.Seq] = time.Now()
		w.mu.Unlock()
	})
	if err := register(r, w.primary, churnID, p.snap); err != nil {
		return err
	}
	w.psrv = replica.NewServer(w.primary, w.plog, replica.ServerOptions{})
	if err := w.psrv.Listen("127.0.0.1:0"); err != nil {
		return err
	}

	if w.flog, err = replica.OpenLog(flogPath); err != nil {
		return err
	}
	w.follower = service.New()
	w.follower.OnPublish(func(_ string, ep *service.Epoch) {
		w.mu.Lock()
		w.visible[ep.Seq] = time.Now()
		w.cond.Broadcast()
		w.mu.Unlock()
	})
	rep := replica.NewReplica(w.follower, w.psrv.Addr(), replica.ReplicaOptions{Log: w.flog, Head: w.plog.Len})
	ctx, cancel := context.WithCancel(context.Background())
	w.stopTail, w.tailDone = cancel, make(chan struct{})
	go func() {
		defer close(w.tailDone)
		rep.Run(ctx)
	}()
	w.fsrv = replica.NewServer(w.follower, w.flog, replica.ServerOptions{})
	if err := w.fsrv.Listen("127.0.0.1:0"); err != nil {
		return err
	}

	tree, err := mst.Kruskal(p.g)
	if err != nil {
		return err
	}
	inTree := make([]bool, p.g.M())
	for _, e := range tree {
		inTree[e] = true
	}
	for e := range inTree {
		if !inTree[e] {
			w.edges = append(w.edges, graph.EdgeID(e))
		}
	}
	rng := rand.New(rand.NewPCG(r.cfg.seed, 0x636875726e))
	rng.Shuffle(len(w.edges), func(i, j int) { w.edges[i], w.edges[j] = w.edges[j], w.edges[i] })
	w.maxW = p.g.MaxWeight()
	w.order = nodeOrder(p.g.N(), r.cfg.seed)

	// The first update builds the primary's advisor: set-up, not churn.
	reply, err := w.update()
	if err != nil {
		return err
	}
	_, err = w.waitVisible(reply.Epoch)
	return err
}

// update raises the next seeded non-tree edge above every weight.
func (w *churnWork) update() (*service.UpdateReply, error) {
	e := w.edges[len(w.batches)%len(w.edges)]
	w.maxW++
	b := graph.Batch{Weights: []graph.WeightUpdate{{Edge: e, W: w.maxW}}}
	w.batches = append(w.batches, b)
	return w.primary.Update(context.Background(), churnID, b)
}

// waitVisible blocks until the follower has published epoch seq and
// returns when it did.
func (w *churnWork) waitVisible(seq uint64) (time.Time, error) {
	deadline := time.Now().Add(catchUp)
	wake := time.AfterFunc(catchUp, func() {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	})
	defer wake.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if at, ok := w.visible[seq]; ok {
			return at, nil
		}
		if !time.Now().Before(deadline) {
			return time.Time{}, fmt.Errorf("follower has not published epoch %d after %v", seq, catchUp)
		}
		w.cond.Wait()
	}
}

// ref returns the advice the primary published as epoch seq. A reader
// can see an epoch a moment before the primary's hooks run, so it waits
// briefly for the record.
func (w *churnWork) ref(seq uint64) []*bitstring.BitString {
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		w.mu.Lock()
		adv := w.refs[seq]
		w.mu.Unlock()
		if adv != nil || time.Now().After(deadline) {
			return adv
		}
	}
}

func (w *churnWork) prepare(r *run) error { return checkSnapshot(r, w.p.path) }

// sent is one update as the writer saw it.
type sent struct {
	seq              uint64
	due, at, done    time.Time
	incremental      bool
	visible, durable time.Time
}

func (w *churnWork) phase(r *run, tr *tracer) (*phaseOut, error) {
	appendBefore, _ := w.plog.Metrics().HistogramSnapshot("replica_log_append_latency_ns")
	fsyncBefore, _ := w.plog.Metrics().HistogramSnapshot("replica_log_fsync_latency_ns")
	updBefore, _ := w.primary.Metrics().HistogramSnapshot("service_op_latency_ns", "op", "update")
	endpoints := []string{w.psrv.Addr(), w.fsrv.Addr()}
	cli, err := replica.NewClient(endpoints, replica.ClientOptions{})
	if err != nil {
		return nil, err
	}
	defer cli.Close()

	var writing atomic.Bool
	writing.Store(true)
	var readLat []time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := uint64(0)
		for i := 0; writing.Load(); i++ {
			v := w.order[i%len(w.order)]
			t0 := time.Now()
			ans, err := cli.Advice(context.Background(), churnID, v)
			readLat = append(readLat, time.Since(t0))
			ok := err == nil && ans.Epoch >= last
			if ok {
				last = ans.Epoch
				adv := w.ref(ans.Epoch)
				ok = adv != nil && ans.Bits.Equal(adv[v])
			}
			r.check(ok, "read of node %d during churn: epoch %d after %d: %v", v, ans.Epoch, last, err)
		}
	}()

	start := time.Now()
	end := r.deadline()
	var sends []sent
	late := 0
	var werr error
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * churnPeriod)
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		at := time.Now()
		if at.Sub(due) > lateAfter {
			late++
		}
		reply, err := w.update()
		if err != nil {
			werr = err
			break
		}
		sends = append(sends, sent{seq: reply.Epoch, due: due, at: at, done: time.Now(), incremental: reply.Incremental})
	}
	wall := time.Since(start)
	writing.Store(false)
	wg.Wait()
	if werr != nil {
		return nil, werr
	}
	if len(sends) == 0 {
		return nil, fmt.Errorf("no update was due within %v", r.cfg.seconds)
	}
	if _, err := w.waitVisible(sends[len(sends)-1].seq); err != nil {
		return nil, err
	}

	out := newPhaseOut()
	var upd, apply []float64
	incremental := 0
	w.mu.Lock()
	for i := range sends {
		s := &sends[i]
		s.visible, s.durable = w.visible[s.seq], w.published[s.seq]
	}
	w.mu.Unlock()
	for _, s := range sends {
		out.lat = append(out.lat, s.visible.Sub(s.due))
		upd = append(upd, float64(s.done.Sub(s.due).Nanoseconds())/1e6)
		apply = append(apply, float64(s.visible.Sub(s.durable).Nanoseconds())/1e6)
		if s.incremental {
			incremental++
		}
		op := tr.record(opSpan, 0, s.due, s.visible)
		tr.record("harness.late", op, s.due, s.at)
		tr.record("service.update", op, s.at, s.durable)
		tr.record("replica.apply", op, s.durable, s.visible)
	}
	vis := durs(out.lat, time.Millisecond)
	out.detail.set("update_p50_ms", median(upd), "ms")
	out.detail.set("update_p90_ms", percentile(upd, 0.9), "ms")
	out.detail.set("visible_p50_ms", median(vis), "ms")
	out.detail.set("visible_p90_ms", percentile(vis, 0.9), "ms")
	out.detail.set("updates", float64(len(sends)), "count")
	out.detail.set("late_sends", float64(late), "count")
	out.detail.set("incremental_frac", float64(incremental)/float64(len(sends)), "frac")
	out.detail.set("read_qps", float64(len(readLat))/wall.Seconds(), "reads/s")
	setReads(out, "wire", readLat)

	logAppend := histDelta(appendBefore, w.plog.Metrics(), "replica_log_append_latency_ns")
	logFsync := histDelta(fsyncBefore, w.plog.Metrics(), "replica_log_fsync_latency_ns")
	svcUpdate := histDelta(updBefore, w.primary.Metrics(), "service_op_latency_ns", "op", "update")
	out.layers.set("replica.log_append_ms_p50", logAppend.Quantile(0.5)/1e6, "ms")
	out.layers.set("replica.log_append_ms_p90", logAppend.Quantile(0.9)/1e6, "ms")
	out.layers.set("replica.log_fsync_ms_p50", logFsync.Quantile(0.5)/1e6, "ms")
	out.layers.set("replica.log_fsync_ms_p90", logFsync.Quantile(0.9)/1e6, "ms")
	out.layers.set("service.update_ms_p50", svcUpdate.Quantile(0.5)/1e6, "ms")
	out.layers.set("service.update_ms_p90", svcUpdate.Quantile(0.9)/1e6, "ms")
	out.layers.set("replica.apply_ms_p50", median(apply), "ms")
	out.layers.set("replica.apply_ms_p90", percentile(apply, 0.9), "ms")
	retained := 0
	for i := 0; i < w.plog.Len(); i++ {
		retained += cap(w.plog.At(i).Blob)
	}
	out.layers.set("replica.log_records", float64(w.plog.Len()), "count")
	out.layers.set("replica.log_retained_mb", float64(retained)/(1<<20), "MB")
	readAttempts(cli, endpoints, len(readLat), out.layers)

	return out, w.checkEpochs(r)
}

// histDelta is what a registry histogram gained since before.
func histDelta(before obs.HistSnapshot, reg *obs.Registry, name string, labels ...string) obs.HistSnapshot {
	after, _ := reg.HistogramSnapshot(name, labels...)
	for i := range after.Buckets {
		after.Buckets[i] -= before.Buckets[i]
	}
	after.Sum -= before.Sum
	return after
}

// checkEpochs checks, once the follower has caught up, that it serves
// the primary's epoch and that the primary's advice is what a fresh
// oracle run computes on its current graph.
func (w *churnWork) checkEpochs(r *run) error {
	pe, err := w.primary.Epoch(churnID)
	if err != nil {
		return err
	}
	fe, err := w.follower.Epoch(churnID)
	if err != nil {
		return err
	}
	r.check(fe.Seq == pe.Seq && sameAdvice(fe.Advice, pe.Advice), "follower at epoch %d, primary at %d", fe.Seq, pe.Seq)
	d, err := core.BuildAdviceDetailOpt(pe.Graph, pe.Root, core.DefaultCap, core.OracleOptions{})
	if err != nil {
		return err
	}
	r.check(sameAdvice(d.Advice, pe.Advice), "epoch %d advice differs from a fresh oracle run", pe.Seq)
	return nil
}

// probe replays every batch through a private dynamic.Advisor to time
// the advisor alone, and sets what the wire adds to an in-process read.
func (w *churnWork) probe(r *run, plain, _ *phaseOut, layers metricSet) error {
	adv, err := dynamic.NewAdvisor(w.p.g.Clone(), root, core.DefaultCap)
	if err != nil {
		return err
	}
	lat := make([]float64, 0, len(w.batches))
	incremental := 0
	for _, b := range w.batches {
		t0 := time.Now()
		res, err := adv.Update(b)
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		if res.Incremental {
			incremental++
		}
	}
	pe, err := w.primary.Epoch(churnID)
	if err != nil {
		return err
	}
	r.check(sameAdvice(adv.Advice(), pe.Advice), "advisor replay ends with advice other than the primary's")
	layers.set("dynamic.update_us_p50", median(lat), "us")
	layers.set("dynamic.incremental_frac", float64(incremental)/float64(max(len(w.batches), 1)), "frac")
	inproc := layers["service.advice_ns_p50"].Value / 1e3
	layers.set("replica.wire_overhead_us_p50", plain.detail["wire_read_p50_us"].Value-inproc, "us")
	return nil
}

func (w *churnWork) base() *pipeline { return w.p }

func (w *churnWork) close() {
	if w.stopTail != nil {
		w.stopTail()
		<-w.tailDone
	}
	for _, s := range []*replica.Server{w.fsrv, w.psrv} {
		if s != nil {
			s.Close()
		}
	}
	for _, l := range []*replica.Log{w.flog, w.plog} {
		if l != nil {
			l.Close()
		}
	}
}
