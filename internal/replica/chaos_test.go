package replica

import (
	"bufio"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"mstadvice/internal/core"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

func TestScheduleIsDeterministic(t *testing.T) {
	s := Schedule{Seed: 99, DropPct: 20, DelayPct: 20, TruncatePct: 20}
	counts := map[FaultKind]int{}
	for i := uint64(0); i < 400; i++ {
		a, b := s.FaultFor(i), s.FaultFor(i)
		if a != b {
			t.Fatalf("conn %d: FaultFor not deterministic: %+v vs %+v", i, a, b)
		}
		counts[a.Kind]++
	}
	for _, k := range []FaultKind{FaultNone, FaultDrop, FaultDelay, FaultTruncate} {
		if counts[k] == 0 {
			t.Fatalf("schedule never produced %v over 400 connections: %v", k, counts)
		}
	}
	if got := (Schedule{Seed: 100, DropPct: 20, DelayPct: 20, TruncatePct: 20}).FaultFor(0); got == s.FaultFor(0) &&
		(Schedule{Seed: 100, DropPct: 20, DelayPct: 20, TruncatePct: 20}).FaultFor(1) == s.FaultFor(1) &&
		(Schedule{Seed: 100, DropPct: 20, DelayPct: 20, TruncatePct: 20}).FaultFor(2) == s.FaultFor(2) {
		t.Fatal("different seeds produced an identical schedule prefix")
	}
}

// echoServer answers each record frame with its payload echoed back.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					payload, err := store.ReadRecord(br, store.MaxRecord, nil)
					if err != nil {
						return
					}
					if _, err := conn.Write(store.AppendRecord(nil, payload)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln
}

func TestProxyForwardsCleanConnections(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p, err := NewProxy(ln.Addr().String(), Schedule{}) // all-clean schedule
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 0; i < 10; i++ {
		msg := []byte{byte(i), 0xA5, byte(i * 3)}
		if _, err := conn.Write(store.AppendRecord(nil, msg)); err != nil {
			t.Fatal(err)
		}
		got, err := store.ReadRecord(br, store.MaxRecord, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 3 || got[0] != byte(i) {
			t.Fatalf("round %d: echoed %x", i, got)
		}
	}
}

func TestProxyTruncationSurfacesAsTornRecord(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	// 100% truncation with a tiny budget: the reply is cut mid-frame.
	p, err := NewProxy(ln.Addr().String(), Schedule{Seed: 3, TruncatePct: 100, MaxTruncate: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := conn.Write(store.AppendRecord(nil, payload)); err != nil {
		t.Fatal(err)
	}
	_, err = store.ReadRecord(bufio.NewReader(conn), store.MaxRecord, nil)
	if err == nil {
		t.Fatal("truncated reply parsed as a full record")
	}
	if errors.Is(err, store.ErrTornRecord) {
		return // the loud failure the codec promises
	}
	var nerr net.Error
	if !errors.As(err, &nerr) && !errors.Is(err, net.ErrClosed) {
		// A cut at a frame boundary surfaces as EOF/closed instead.
		t.Logf("truncation surfaced as %v (acceptable: connection error)", err)
	}
}

func TestProxyPartition(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p, err := NewProxy(ln.Addr().String(), Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(store.AppendRecord(nil, []byte{1})); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := store.ReadRecord(br, store.MaxRecord, nil); err != nil {
		t.Fatal(err)
	}

	p.SetPartitioned(true)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	// The live connection dies...
	if _, err := conn.Write(store.AppendRecord(nil, []byte{2})); err == nil {
		if _, err := store.ReadRecord(br, store.MaxRecord, nil); err == nil {
			t.Fatal("read through a partition succeeded")
		}
	}
	// ...and new ones refuse to carry traffic.
	c2, err := net.Dial("tcp", p.Addr())
	if err == nil {
		c2.SetDeadline(time.Now().Add(5 * time.Second))
		c2.Write(store.AppendRecord(nil, []byte{3}))
		if _, err := store.ReadRecord(bufio.NewReader(c2), store.MaxRecord, nil); err == nil {
			t.Fatal("read through a partition on a fresh connection succeeded")
		}
		c2.Close()
	}

	p.SetPartitioned(false)
	c3, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c3.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := c3.Write(store.AppendRecord(nil, []byte{4})); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ReadRecord(bufio.NewReader(c3), store.MaxRecord, nil); err != nil {
		t.Fatalf("healed partition still blocks: %v", err)
	}
}

// TestClientThroughChaosNeverWrong is the integration contract: a
// failover client reading through fault-injecting proxies — drops,
// delays, truncations — may retry, but every answer it returns must be
// byte-identical to the primary's and at a monotone epoch.
func TestClientThroughChaosNeverWrong(t *testing.T) {
	g := seeded(t, "random", 64, 11, gen.WeightsDistinct)
	adviceBits, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New()
	if err := svc.Register("g", &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: adviceBits}); err != nil {
		t.Fatal(err)
	}
	srvA := NewServer(svc, nil, ServerOptions{})
	srvB := NewServer(svc, nil, ServerOptions{})
	for _, s := range []*Server{srvA, srvB} {
		if err := s.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
	}
	sched := Schedule{Seed: 12345, DropPct: 25, DelayPct: 15, TruncatePct: 25, MaxDelay: 2 * time.Millisecond}
	pA, err := NewProxy(srvA.Addr(), sched)
	if err != nil {
		t.Fatal(err)
	}
	defer pA.Close()
	pB, err := NewProxy(srvB.Addr(), Schedule{Seed: 54321, DropPct: 25, DelayPct: 15, TruncatePct: 25, MaxDelay: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pB.Close()

	cli, err := NewClient([]string{pA.Addr(), pB.Addr()}, ClientOptions{
		Timeout:     time.Second,
		Attempts:    40, // the schedule can run several faulty connections back to back
		BackoffBase: time.Millisecond,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	answered := 0
	for u := 0; u < g.N(); u++ {
		ans, err := cli.Advice(context.Background(), "g", u)
		if err != nil {
			t.Fatalf("node %d through chaos: %v", u, err)
		}
		if ans.Epoch != 0 || !ans.Bits.Equal(adviceBits[u]) {
			t.Fatalf("node %d: WRONG ANSWER through chaos: %s@%d, want %s@0", u, ans.Bits, ans.Epoch, adviceBits[u])
		}
		answered++
	}
	if answered != g.N() {
		t.Fatalf("answered %d of %d", answered, g.N())
	}
	if pA.Conns()+pB.Conns() == 0 {
		t.Fatal("no traffic went through the proxies")
	}
}
