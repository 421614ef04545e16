// Package replica is the fault-tolerant replicated serving tier
// (DESIGN.md §2.10): a primary AdviceService exposes its epoch history
// as a durable, length-prefixed binary epoch log (one CRC-framed record
// per published epoch, reusing the internal/store codec), replicas tail
// that log over TCP and publish every record through the same
// copy-on-write path local updates use, and a failover client spreads
// reads over the endpoints with per-request timeouts, capped jittered
// backoff and stale-epoch detection.
//
// # Consistency
//
// The replication unit is the epoch — the service's immutable published
// state (graph, advice, tiers) — never a diff, so a replica is correct
// after every single applied record. Three mechanisms compose into the
// consistent-prefix guarantee (a replica never serves epoch e+1 effects
// before e, and a client never observes epochs going backwards):
//
//   - the log is append-only and written in publication order (the
//     service's OnPublish hook runs under the entry's writer lock);
//   - a tail subscription streams records in log order on one TCP
//     connection, and the per-record CRC turns any truncation or
//     corruption into a reconnect instead of a misparse;
//   - service.Publish refuses a record that does not extend the
//     replica's history by exactly one epoch, and the client retries
//     any answer whose epoch precedes one it has already seen.
//
// Failures are exercised, not assumed: the package's tests put a seeded
// fault-injecting proxy between client and servers, and
// TestKillRestartDrill kills and restarts the primary and a replica
// mid-run under load.
package replica

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"mstadvice/internal/graph"
	"mstadvice/internal/obs"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// ReplicaOptions tune a follower.
type ReplicaOptions struct {
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// ReconnectBase/ReconnectCap shape the capped exponential backoff
	// between connection attempts (defaults 50ms / 2s).
	ReconnectBase time.Duration
	ReconnectCap  time.Duration
	// Log, when non-nil, durably mirrors every applied record, so a
	// restarted replica resumes from its own log instead of refetching
	// the full history.
	Log *Log
	// Head, when non-nil, reports the primary's log length, turning the
	// replica_lag_records gauge into true epochs-behind (scrape-time
	// evaluated). In-process harnesses pass the primary log's Len; a
	// remote follower without a head oracle leaves it nil and the gauge
	// reads -1 (unknown).
	Head func() int
	// Recorder, when non-nil, receives reconnect events (nil-safe).
	Recorder *obs.Recorder
}

// Replica tails a primary's epoch log and publishes each record into
// its own service, preserving the consistent prefix: records apply in
// log order, and a record that does not extend the local history by
// exactly one epoch is refused.
type Replica struct {
	svc     *service.Service
	primary string
	opts    ReplicaOptions

	applied    atomic.Int64
	lastApply  atomic.Int64 // unix nanos of the last applied record; 0 = never
	lastErr    atomic.Value // string
	met        *obs.Registry
	reconnects *obs.Counter
}

// NewReplica builds a follower of the primary at addr publishing into
// svc. If opts.Log holds records (a restart), call ReplayLocal before
// Run so tailing resumes after them.
func NewReplica(svc *service.Service, addr string, opts ReplicaOptions) *Replica {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Second
	}
	if opts.ReconnectBase <= 0 {
		opts.ReconnectBase = 50 * time.Millisecond
	}
	if opts.ReconnectCap <= 0 {
		opts.ReconnectCap = 2 * time.Second
	}
	r := &Replica{svc: svc, primary: addr, opts: opts, met: obs.NewRegistry()}
	r.reconnects = r.met.Counter("replica_reconnects_total")
	r.met.GaugeFunc("replica_applied_records", func() float64 {
		return float64(r.applied.Load())
	})
	r.met.GaugeFunc("replica_lag_records", func() float64 {
		if r.opts.Head == nil {
			return -1
		}
		lag := int64(r.opts.Head()) - r.applied.Load()
		if lag < 0 {
			lag = 0
		}
		return float64(lag)
	})
	r.met.GaugeFunc("replica_last_apply_age_seconds", func() float64 {
		t := r.lastApply.Load()
		if t == 0 {
			return -1
		}
		return time.Since(time.Unix(0, t)).Seconds()
	})
	return r
}

// Metrics returns the follower's metric registry.
func (r *Replica) Metrics() *obs.Registry { return r.met }

// ReplayLocal publishes the local log's records into the service and
// fast-forwards the tail position past them.
func (r *Replica) ReplayLocal() error {
	if r.opts.Log == nil {
		return nil
	}
	if err := r.opts.Log.Replay(r.svc); err != nil {
		return err
	}
	r.applied.Store(int64(r.opts.Log.Len()))
	return nil
}

// Run tails the primary until ctx is canceled, reconnecting with capped
// exponential backoff whenever the connection dies — a primary crash
// parks the replica in the retry loop, and its restart (with the same
// durable log) resumes the stream exactly where it stopped.
func (r *Replica) Run(ctx context.Context) {
	backoff := r.opts.ReconnectBase
	for ctx.Err() == nil {
		before := r.applied.Load()
		err := r.tailOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		if r.applied.Load() > before {
			// The connection made progress before dying; the next outage
			// starts from the base backoff, not wherever the last one
			// left the escalation.
			backoff = r.opts.ReconnectBase
		}
		if err != nil {
			r.lastErr.Store(err.Error())
			r.reconnects.Inc()
			r.opts.Recorder.Record("reconnect", "replica tail of %s dropped (applied %d): %v", r.primary, r.applied.Load(), err)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > r.opts.ReconnectCap {
			backoff = r.opts.ReconnectCap
		}
	}
}

// tailOnce runs one connection: subscribe after the applied position,
// then apply records until the stream breaks.
func (r *Replica) tailOnce(ctx context.Context) error {
	d := net.Dialer{Timeout: r.opts.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", r.primary)
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	wc := newWireConn(conn)
	if err := wc.writeFrame(tailRequest(uint64(r.applied.Load()))); err != nil {
		return err
	}
	// One record buffer serves the whole connection: the decoder copies
	// everything out of the blob, parseRecord copies the graph ID, and
	// the log's Append keeps no reference to the payload.
	var payload []byte
	for {
		payload, err = store.ReadRecord(wc.r, store.MaxRecord, payload) // blocks until the next epoch; no deadline
		if err != nil {
			return err
		}
		rec, err := parseRecord(payload)
		if err != nil {
			return err
		}
		// Each record is decoded against the epoch it succeeds, whose
		// CSR and identifiers a weight-only epoch shares.
		var prev *graph.Graph
		if ep, err := r.svc.Epoch(rec.ID); err == nil {
			prev = ep.Graph
		}
		snap, err := store.DecodeNext(rec.Blob, prev)
		if err != nil {
			return fmt.Errorf("replica: record %s@%d: %w", rec.ID, rec.Seq, err)
		}
		if err := r.svc.Publish(rec.ID, snap, rec.Seq); err != nil {
			return err
		}
		if r.opts.Log != nil {
			if err := r.opts.Log.Append(rec); err != nil {
				return err
			}
		}
		r.applied.Add(1)
		r.lastApply.Store(time.Now().UnixNano())
	}
}
