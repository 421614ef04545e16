package replica

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/obs"
	"mstadvice/internal/store"
)

// ErrStale marks an answer whose epoch precedes one the client already
// observed for the graph — a lagging replica. The client retries other
// endpoints before surfacing it, so a caller seeing it knows every
// endpoint was behind the client's read frontier.
var ErrStale = errors.New("replica: stale epoch")

// ErrDegraded reports that no endpoint served full advice but at least
// one answered in tier-only (memory-pressure) mode; CoarsestTier (or
// AdviceDegraded) fetches the coarse snapshot such an endpoint serves.
var ErrDegraded = errors.New("replica: only degraded endpoints answered")

// ErrNotFound mirrors the wire not-found code after failover: no
// endpoint knows the graph (or tier).
var ErrNotFound = errors.New("replica: not found on any endpoint")

// Answer is one advice read: the bits and the epoch they belong to.
type Answer struct {
	Node  int
	Epoch uint64
	Bits  *bitstring.BitString
	// Degraded marks an AdviceDegraded fallback: Bits is nil and Tier
	// holds the coarse snapshot to decode locally instead.
	Degraded  bool
	Tier      *store.Snapshot
	TierLevel int
	// Diagnosis, on a Degraded answer, lists the terminal per-endpoint
	// error each endpoint gave before the client fell back to the coarse
	// tier — why the full read failed, per endpoint.
	Diagnosis []EndpointError
}

// EndpointError is one endpoint's terminal error in a failed-over read.
type EndpointError struct {
	Endpoint string `json:"endpoint"`
	Err      string `json:"err"`
}

// FailoverError wraps a failover's sentinel error (ErrDegraded,
// ErrNotFound or the generic exhaustion error) with the terminal error
// each attempted endpoint gave. errors.Is/As see through it.
type FailoverError struct {
	err       error
	Diagnosis []EndpointError
}

func (e *FailoverError) Error() string { return e.err.Error() }
func (e *FailoverError) Unwrap() error { return e.err }

// TierAnswer is one coarse-tier read: a standalone flat snapshot.
type TierAnswer struct {
	Level    int
	Epoch    uint64
	Snapshot *store.Snapshot
}

// ClientOptions tune the failover read path.
type ClientOptions struct {
	// Timeout bounds each single request: dial + write + read (default
	// 2s). The per-attempt deadline is what keeps p99 bounded when an
	// endpoint blackholes instead of refusing.
	Timeout time.Duration
	// Attempts is the total request budget across endpoints and retries
	// (default 3 per endpoint).
	Attempts int
	// BackoffBase/BackoffCap shape the capped exponential backoff
	// applied after each full cycle over the endpoints (defaults
	// 2ms / 100ms); the actual sleep is jittered in [½·b, b).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed feeds the deterministic jitter stream (0 means 1).
	Seed uint64
	// Recorder, when non-nil, receives failover and degraded-fallback
	// events (nil-safe).
	Recorder *obs.Recorder
}

// Client reads advice from a replicated endpoint set: round-robin load
// balancing, failover on connection error, torn frame, not-found (a
// lagging replica) or stale epoch, capped jittered backoff between
// cycles, and per-graph monotone epochs — the client-side half of the
// consistent-prefix guarantee.
type Client struct {
	endpoints []string
	opt       ClientOptions
	met       *cliMetrics
	next      atomic.Uint64
	jitter    atomic.Uint64

	mu       sync.Mutex
	idle     map[string][]*wireConn
	maxEpoch map[string]uint64
	closed   bool
}

// NewClient builds a client over the endpoint set (at least one).
func NewClient(endpoints []string, opt ClientOptions) (*Client, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("replica: client needs at least one endpoint")
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 2 * time.Second
	}
	if opt.Attempts <= 0 {
		opt.Attempts = 3 * len(endpoints)
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = 2 * time.Millisecond
	}
	if opt.BackoffCap <= 0 {
		opt.BackoffCap = 100 * time.Millisecond
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	c := &Client{
		endpoints: append([]string(nil), endpoints...),
		opt:       opt,
		met:       newCliMetrics(endpoints),
		idle:      make(map[string][]*wireConn),
		maxEpoch:  make(map[string]uint64),
	}
	c.jitter.Store(opt.Seed)
	return c, nil
}

// Close drops every pooled connection.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, conns := range c.idle {
		for _, wc := range conns {
			wc.conn.Close()
		}
	}
	c.idle = make(map[string][]*wireConn)
}

// Advice reads one node's advice with failover; the answer's epoch is
// monotone per graph across the client's lifetime.
func (c *Client) Advice(ctx context.Context, id string, node int) (Answer, error) {
	var ans Answer
	err := c.failover(ctx, func(ep string) error {
		req := store.AppendString([]byte{opAdvice}, id)
		req = binary.AppendUvarint(req, uint64(node))
		payload, err := c.roundTrip(ctx, ep, req)
		if err != nil {
			return err
		}
		cur := store.NewCursor(payload)
		epoch, err := cur.Uvarint("epoch")
		if err != nil {
			return err
		}
		bits, err := cur.Uvarint("bit length")
		if err != nil {
			return err
		}
		s, err := cur.Bits(bits, "advice bits")
		if err != nil {
			return err
		}
		if err := cur.End("advice bits"); err != nil {
			return err
		}
		if err := c.advanceEpoch(id, epoch); err != nil {
			return err
		}
		ans = Answer{Node: node, Epoch: epoch, Bits: s}
		return nil
	})
	return ans, err
}

// Tier reads one coarse tier (level ≤ 0: coarsest) with failover.
func (c *Client) Tier(ctx context.Context, id string, level int) (TierAnswer, error) {
	if level < 0 {
		level = 0
	}
	var ans TierAnswer
	err := c.failover(ctx, func(ep string) error {
		req := store.AppendString([]byte{opTier}, id)
		req = binary.AppendUvarint(req, uint64(level))
		payload, err := c.roundTrip(ctx, ep, req)
		if err != nil {
			return err
		}
		cur := store.NewCursor(payload)
		lvl, err := cur.Uvarint("tier level")
		if err != nil {
			return err
		}
		epoch, err := cur.Uvarint("epoch")
		if err != nil {
			return err
		}
		snap, err := store.Decode(cur.Rest())
		if err != nil {
			return err
		}
		if err := c.advanceEpoch(id, epoch); err != nil {
			return err
		}
		ans = TierAnswer{Level: int(lvl), Epoch: epoch, Snapshot: snap}
		return nil
	})
	return ans, err
}

// AdviceDegraded is Advice with graceful degradation: when only
// tier-only endpoints answer, it fetches the coarsest tier instead and
// returns a Degraded answer carrying the coarse snapshot — the caller
// runs the hierarchical decoder locally, trading rounds for
// availability (DESIGN.md §2.9, §2.10).
func (c *Client) AdviceDegraded(ctx context.Context, id string, node int) (Answer, error) {
	ans, err := c.Advice(ctx, id, node)
	if !errors.Is(err, ErrDegraded) {
		return ans, err
	}
	var fe *FailoverError
	var diag []EndpointError
	if errors.As(err, &fe) {
		diag = fe.Diagnosis
	}
	tier, terr := c.Tier(ctx, id, 0)
	if terr != nil {
		return Answer{}, fmt.Errorf("%w (tier fallback also failed: %v)", err, terr)
	}
	c.opt.Recorder.Record("degraded", "graph %s node %d: full advice refused by %d endpoint(s), served coarse tier %d@%d",
		id, node, len(diag), tier.Level, tier.Epoch)
	return Answer{Node: node, Epoch: tier.Epoch, Degraded: true, Tier: tier.Snapshot, TierLevel: tier.Level, Diagnosis: diag}, nil
}

// Epoch returns the primary-side epoch of id on any live endpoint.
func (c *Client) Epoch(ctx context.Context, id string) (uint64, error) {
	var epoch uint64
	err := c.failover(ctx, func(ep string) error {
		payload, err := c.roundTrip(ctx, ep, store.AppendString([]byte{opInfo}, id))
		if err != nil {
			return err
		}
		epoch, err = store.NewCursor(payload).Uvarint("epoch")
		return err
	})
	return epoch, err
}

// advanceEpoch enforces per-graph monotone reads.
func (c *Client) advanceEpoch(id string, epoch uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if max := c.maxEpoch[id]; epoch < max {
		return fmt.Errorf("%w: %q answered epoch %d after %d was observed", ErrStale, id, epoch, max)
	} else if epoch > max {
		c.maxEpoch[id] = epoch
	}
	return nil
}

// wireErr is a decoded rErr reply.
type wireErr struct {
	code uint64
	msg  string
}

func (e *wireErr) Error() string { return fmt.Sprintf("replica: remote error %d: %s", e.code, e.msg) }

// failover drives one logical read: round-robin over endpoints, retry
// on retryable failures (connection errors, torn frames, not-found on a
// lagging replica, stale epochs, degraded refusals), permanent errors
// returned immediately, capped jittered backoff after each full cycle.
func (c *Client) failover(ctx context.Context, attempt func(endpoint string) error) error {
	var lastErr error
	sawDegraded, sawNotFound := false, false
	epErrs := make(map[string]error, len(c.endpoints))
	backoff := c.opt.BackoffBase
	// The rotation point is taken once per request, not per attempt:
	// attempts then walk the endpoint list in order, so any run of
	// len(endpoints) consecutive attempts provably covers every
	// endpoint. (A shared per-attempt counter does not guarantee that —
	// concurrent requests can interleave so one request sees the same
	// lagging endpoint on every attempt and spins on ErrStale.)
	start := int(c.next.Add(1) - 1)
	for a := 0; a < c.opt.Attempts; a++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ep := c.endpoints[(start+a)%len(c.endpoints)]
		err := attempt(ep)
		c.met.attempts[ep][classifyOutcome(err)].Inc()
		if err == nil {
			return nil
		}
		epErrs[ep] = err
		var we *wireErr
		if errors.As(err, &we) {
			switch we.code {
			case codeDegraded:
				sawDegraded = true
			case codeNotFound:
				sawNotFound = true
			default:
				return err // permanent: a malformed or out-of-range request
			}
		}
		lastErr = err
		// One full cycle exhausted: back off before hammering the set
		// again, with deterministic jitter in [½·backoff, backoff).
		if (a+1)%len(c.endpoints) == 0 && a+1 < c.opt.Attempts {
			c.met.rotations.Inc()
			d := backoff/2 + time.Duration(c.rand()%uint64(backoff/2+1))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
			backoff *= 2
			if backoff > c.opt.BackoffCap {
				backoff = c.opt.BackoffCap
			}
		}
	}
	// Terminal: every endpoint's last error rides along, in endpoint
	// order, so callers (and the flight recorder) see why each one was
	// unusable — not just whichever happened to fail last.
	diag := make([]EndpointError, 0, len(c.endpoints))
	for _, ep := range c.endpoints {
		if e, ok := epErrs[ep]; ok {
			diag = append(diag, EndpointError{Endpoint: ep, Err: e.Error()})
		}
	}
	var err error
	switch {
	case sawDegraded:
		err = fmt.Errorf("%w: last error: %v", ErrDegraded, lastErr)
	case sawNotFound:
		err = fmt.Errorf("%w: last error: %v", ErrNotFound, lastErr)
	default:
		err = fmt.Errorf("replica: all %d attempts failed: %w", c.opt.Attempts, lastErr)
	}
	c.opt.Recorder.Record("failover", "read exhausted %d attempts over %d endpoint(s): %v", c.opt.Attempts, len(c.endpoints), err)
	return &FailoverError{err: err, Diagnosis: diag}
}

// rand steps the shared SplitMix64 jitter stream.
func (c *Client) rand() uint64 {
	z := c.jitter.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// roundTrip sends one request frame on a pooled connection of the
// endpoint and reads the reply, under the per-request timeout. Failed
// connections are discarded, successful ones pooled.
func (c *Client) roundTrip(ctx context.Context, endpoint string, req []byte) ([]byte, error) {
	if len(req) > maxRequest {
		// A server closes the connection on such a frame; fail the request
		// as one whose graph ID is over the bound: permanently.
		return nil, &wireErr{code: codeBad, msg: fmt.Sprintf("request of %d bytes exceeds the %d limit", len(req), maxRequest)}
	}
	deadline := time.Now().Add(c.opt.Timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	wc, err := c.getConn(ctx, endpoint, deadline)
	if err != nil {
		return nil, err
	}
	wc.conn.SetDeadline(deadline)
	if err := wc.writeFrame(req); err != nil {
		wc.conn.Close()
		return nil, err
	}
	payload, err := store.ReadRecord(wc.r, store.MaxRecord, nil)
	if err != nil {
		wc.conn.Close()
		return nil, err
	}
	if len(payload) == 0 {
		wc.conn.Close()
		return nil, fmt.Errorf("replica: empty reply from %s", endpoint)
	}
	status, body := payload[0], payload[1:]
	if status == rErr {
		we, err := parseErr(body)
		if err != nil {
			wc.conn.Close()
			return nil, err
		}
		c.putConn(endpoint, wc)
		return nil, we
	}
	c.putConn(endpoint, wc)
	return body, nil
}

func (c *Client) getConn(ctx context.Context, endpoint string, deadline time.Time) (*wireConn, error) {
	c.mu.Lock()
	if conns := c.idle[endpoint]; len(conns) > 0 {
		wc := conns[len(conns)-1]
		c.idle[endpoint] = conns[:len(conns)-1]
		c.mu.Unlock()
		return wc, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Deadline: deadline}
	conn, err := d.DialContext(ctx, "tcp", endpoint)
	if err != nil {
		return nil, err
	}
	return newWireConn(conn), nil
}

func (c *Client) putConn(endpoint string, wc *wireConn) {
	wc.conn.SetDeadline(time.Time{})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		wc.conn.Close()
		return
	}
	c.idle[endpoint] = append(c.idle[endpoint], wc)
}

// wireConn pairs a connection with its buffered reader.
type wireConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func newWireConn(conn net.Conn) *wireConn {
	return &wireConn{conn: conn, r: bufio.NewReader(conn)}
}

func (w *wireConn) writeFrame(payload []byte) error {
	_, err := w.conn.Write(store.AppendRecord(nil, payload))
	return err
}

// tailRequest builds the opTail subscription frame payload.
func tailRequest(after uint64) []byte {
	return binary.AppendUvarint([]byte{opTail}, after)
}
