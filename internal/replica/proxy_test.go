package replica

// A deterministic fault-injecting TCP proxy for the replication tests
// (DESIGN.md §2.10): it sits between a replica client and a serving
// endpoint and drops, delays or truncates connections on a seeded
// schedule, or partitions the endpoint entirely. Determinism is the
// point — a fault schedule is a pure function of (seed, connection
// index), so a chaos run that finds a bug is a reproduction recipe,
// not an anecdote. The replication wire protocol frames every message
// with a CRC record, so every cut the proxy makes surfaces as a loud
// codec error on the victim, never a misparse.

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// FaultKind classifies what happens to one proxied connection.
type FaultKind int

const (
	// FaultNone forwards the connection untouched.
	FaultNone FaultKind = iota
	// FaultDrop closes both sides the moment the connection opens —
	// the classic refused/reset failure.
	FaultDrop
	// FaultDelay adds a fixed latency before every chunk forwarded to
	// the client — a slow or congested endpoint.
	FaultDelay
	// FaultTruncate cuts the server→client stream after a byte budget,
	// then closes — a mid-frame connection loss.
	FaultTruncate
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultTruncate:
		return "truncate"
	}
	return "unknown"
}

// Fault is the concrete fault one connection suffers.
type Fault struct {
	Kind FaultKind
	// Delay is the per-chunk forwarding latency (FaultDelay).
	Delay time.Duration
	// TruncateAfter is the server→client byte budget (FaultTruncate).
	TruncateAfter int
}

// Schedule maps a connection index to its fault, deterministically from
// the seed: connection i suffers the same fault in every run.
type Schedule struct {
	// Seed selects the pseudo-random schedule; 0 means 1.
	Seed uint64
	// DropPct, DelayPct, TruncatePct are per-connection percentages
	// (evaluated in that order out of 100); the remainder passes clean.
	DropPct, DelayPct, TruncatePct int
	// MaxDelay bounds injected latency (default 20ms).
	MaxDelay time.Duration
	// MaxTruncate bounds the truncation byte budget (default 256).
	MaxTruncate int
}

// FaultFor returns connection i's fault under the schedule.
func (s Schedule) FaultFor(i uint64) Fault {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	maxDelay := s.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 20 * time.Millisecond
	}
	maxTrunc := s.MaxTruncate
	if maxTrunc <= 0 {
		maxTrunc = 256
	}
	r := splitmix(seed ^ (i+1)*0x9E3779B97F4A7C15)
	roll := int(r % 100)
	param := splitmix(r)
	switch {
	case roll < s.DropPct:
		return Fault{Kind: FaultDrop}
	case roll < s.DropPct+s.DelayPct:
		return Fault{Kind: FaultDelay, Delay: time.Duration(param%uint64(maxDelay)) + time.Millisecond}
	case roll < s.DropPct+s.DelayPct+s.TruncatePct:
		return Fault{Kind: FaultTruncate, TruncateAfter: int(param % uint64(maxTrunc))}
	}
	return Fault{Kind: FaultNone}
}

func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Proxy is one fault-injecting hop in front of a TCP endpoint.
type Proxy struct {
	target string
	sched  Schedule

	ln      net.Listener
	connIdx atomic.Uint64
	part    atomic.Bool

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewProxy listens on a fresh loopback port and forwards each accepted
// connection to target under the schedule's fault for its index.
func NewProxy(target string, sched Schedule) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, sched: sched, ln: ln, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients dial instead of the real endpoint.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Conns returns how many connections have been accepted so far.
func (p *Proxy) Conns() int { return int(p.connIdx.Load()) }

// SetPartitioned toggles a full partition: existing connections die and
// new ones are refused until the partition heals.
func (p *Proxy) SetPartitioned(v bool) {
	p.part.Store(v)
	if v {
		p.mu.Lock()
		for c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	}
}

// Close stops the proxy and severs every live connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		idx := p.connIdx.Add(1) - 1
		fault := p.sched.FaultFor(idx)
		if p.part.Load() || fault.Kind == FaultDrop {
			conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go p.serve(conn, fault)
	}
}

func (p *Proxy) serve(client net.Conn, fault Fault) {
	defer func() {
		client.Close()
		p.mu.Lock()
		delete(p.conns, client)
		p.mu.Unlock()
		p.wg.Done()
	}()
	upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		return
	}
	defer upstream.Close()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.conns[upstream] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, upstream)
		p.mu.Unlock()
	}()

	// Client→server forwards clean; the fault hits the reply direction,
	// where truncation exercises the CRC framing hardest.
	done := make(chan struct{}, 2)
	go func() {
		io.Copy(upstream, client)
		upstream.Close()
		client.Close()
		done <- struct{}{}
	}()
	go func() {
		p.forward(client, upstream, fault)
		upstream.Close()
		client.Close()
		done <- struct{}{}
	}()
	<-done
	<-done
}

// forward copies upstream→client applying the fault.
func (p *Proxy) forward(client, upstream net.Conn, fault Fault) {
	buf := make([]byte, 4096)
	sent := 0
	for {
		n, err := upstream.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if fault.Kind == FaultTruncate && sent+len(chunk) > fault.TruncateAfter {
				chunk = chunk[:fault.TruncateAfter-sent]
				if len(chunk) > 0 {
					client.Write(chunk)
				}
				return // cut mid-stream: the client sees a torn frame
			}
			if fault.Kind == FaultDelay {
				time.Sleep(fault.Delay)
			}
			if _, werr := client.Write(chunk); werr != nil {
				return
			}
			sent += len(chunk)
		}
		if err != nil {
			return
		}
	}
}
