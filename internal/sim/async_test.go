package sim

import (
	"reflect"
	"strings"
	"testing"

	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
)

// amsg is a test message carrying one integer; its size is IDBits.
type amsg struct{ v int64 }

func (m amsg) SizeBits(cm CostModel) int { return cm.IDBits }

// actl is a control message for overhead-accounting tests.
type actl struct{}

func (actl) SizeBits(cm CostModel) int { return 3 }
func (actl) SyncControl() bool         { return true }

// pingNode sends one message per port at Init, records the order its
// own deliveries arrive in, and terminates after hearing from every
// neighbor.
type pingNode struct {
	view     *NodeView
	heard    int
	arrivals []int64 // arrival virtual times, in delivery order
	done     bool
}

func (p *pingNode) Init(ctx *AsyncCtx, view *NodeView) []Send {
	p.view = view
	if view.Deg == 0 {
		p.done = true
		return nil
	}
	out := make([]Send, view.Deg)
	for i := range out {
		out[i] = Send{Port: i, Msg: amsg{view.ID}}
	}
	return out
}

func (p *pingNode) Deliver(ctx *AsyncCtx, view *NodeView, inbox []Received) []Send {
	for range inbox {
		p.heard++
		p.arrivals = append(p.arrivals, ctx.Time)
	}
	if p.heard >= view.Deg {
		p.done = true
	}
	return nil
}

func (p *pingNode) Output() (int, bool) { return -1, p.done }

// ringGraph builds an n-cycle.
func ringGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	return seeded(t, "ring", n, 3, gen.WeightsDistinct)
}

func TestAsyncBasicDelivery(t *testing.T) {
	g := ringGraph(t, 8)
	nw := NewNetwork(g)
	res, err := nw.RunAsync(func(view *NodeView) AsyncNode { return &pingNode{} }, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != int64(2*g.N()) {
		t.Fatalf("messages = %d, want %d", res.Messages, 2*g.N())
	}
	if res.SyncMessages != 0 {
		t.Fatalf("sync messages = %d on a run without control traffic", res.SyncMessages)
	}
	if res.Sent != res.Messages {
		t.Fatalf("conservation: sent %d != messages %d", res.Sent, res.Messages)
	}
	if res.VirtualTime < 1 || res.Steps < 1 {
		t.Fatalf("virtual time %d / steps %d not advanced", res.VirtualTime, res.Steps)
	}
	if res.Steps > int(res.VirtualTime) {
		t.Fatalf("steps %d exceed virtual time %d (each step is one distinct tick)", res.Steps, res.VirtualTime)
	}
}

func TestAsyncRunRejectsSyncOnlyOptions(t *testing.T) {
	g := ringGraph(t, 4)
	nw := NewNetwork(g)
	factory := func(view *NodeView) AsyncNode { return &pingNode{} }
	for name, opt := range map[string]Options{
		"pulses":   {EnablePulses: true},
		"scenario": {Scenario: &Scenario{Events: []ScenarioEvent{{Round: 1, Edge: 0, Action: ActionLinkDown}}}},
	} {
		if _, err := nw.RunAsync(factory, nil, opt); err == nil {
			t.Errorf("RunAsync accepted synchronous-only option %q", name)
		}
	}
	// And the synchronous entry point rejects Async.
	if _, err := nw.Run(func(view *NodeView) Node { return &silent{} }, nil, Options{Async: true}); err == nil {
		t.Error("Run accepted Options.Async")
	}
}

func TestAsyncDeadlockDetected(t *testing.T) {
	g := ringGraph(t, 4)
	nw := NewNetwork(g)
	// Nodes that never send and never terminate: no events ever fire.
	_, err := nw.RunAsync(func(view *NodeView) AsyncNode { return &stuckAsync{} }, nil, Options{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want asynchronous deadlock", err)
	}
}

type stuckAsync struct{}

func (stuckAsync) Init(ctx *AsyncCtx, view *NodeView) []Send                      { return nil }
func (stuckAsync) Deliver(ctx *AsyncCtx, view *NodeView, inbox []Received) []Send { return nil }
func (stuckAsync) Output() (int, bool)                                            { return -1, false }

func TestUniformLatencyDeterministicAndBounded(t *testing.T) {
	l := UniformLatency{Seed: 42, Min: 2, Max: 9}
	seen := map[int64]bool{}
	for h := 0; h < 50; h++ {
		for k := uint64(0); k < 50; k++ {
			d := l.Delay(h, k)
			if d < 2 || d > 9 {
				t.Fatalf("Delay(%d,%d) = %d outside [2,9]", h, k, d)
			}
			if d != l.Delay(h, k) {
				t.Fatalf("Delay(%d,%d) not deterministic", h, k)
			}
			seen[d] = true
		}
	}
	if len(seen) < 6 {
		t.Fatalf("uniform draws hit only %d of 8 values", len(seen))
	}
}

func TestSchedulerPolicies(t *testing.T) {
	// FIFO never lets a message beat the link's previous arrival.
	if got := (FIFO{}).Arrival(10, 5, 20); got != 20 {
		t.Fatalf("FIFO clamp = %d, want 20", got)
	}
	if got := (FIFO{}).Arrival(10, 5, 12); got != 15 {
		t.Fatalf("FIFO free = %d, want 15", got)
	}
	// LIFO overtakes a busy link at the next tick.
	if got := (LIFO{}).Arrival(10, 5, 20); got != 11 {
		t.Fatalf("LIFO overtake = %d, want 11", got)
	}
	if got := (LIFO{}).Arrival(10, 5, 3); got != 15 {
		t.Fatalf("LIFO idle = %d, want 15", got)
	}
	// MaxDelay is constant.
	if got := (MaxDelay{Delay: 17}).Arrival(10, 5, 99); got != 27 {
		t.Fatalf("MaxDelay = %d, want 27", got)
	}
	if got := (MaxDelay{}).Arrival(0, 5, 0); got != 8 {
		t.Fatalf("MaxDelay default = %d, want 8", got)
	}
}

// TestAsyncFIFOPreservesLinkOrder sends a burst on one link under
// variable latency and checks the receiver sees it in send order.
func TestAsyncFIFOPreservesLinkOrder(t *testing.T) {
	g, err := graph.NewBuilder(2).AddEdge(0, 1, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(g)
	var got []int64
	factory := func(view *NodeView) AsyncNode {
		if view.ID == g.ID(0) {
			return &burstSender{count: 20}
		}
		return &orderRecorder{want: 20, got: &got}
	}
	res, err := nw.RunAsync(factory, nil, Options{
		Latency:   UniformLatency{Seed: 99, Min: 1, Max: 16},
		Scheduler: FIFO{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 20 {
		t.Fatalf("messages = %d", res.Messages)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("FIFO violated: position %d got %d (order %v)", i, v, got)
		}
	}
}

type burstSender struct{ count int }

func (b *burstSender) Init(ctx *AsyncCtx, view *NodeView) []Send {
	out := make([]Send, b.count)
	for i := range out {
		out[i] = Send{Port: 0, Msg: amsg{int64(i)}}
	}
	return out
}
func (b *burstSender) Deliver(ctx *AsyncCtx, view *NodeView, inbox []Received) []Send { return nil }
func (b *burstSender) Output() (int, bool)                                            { return -1, true }

type orderRecorder struct {
	want int
	got  *[]int64
	done bool
}

func (o *orderRecorder) Init(ctx *AsyncCtx, view *NodeView) []Send { return nil }
func (o *orderRecorder) Deliver(ctx *AsyncCtx, view *NodeView, inbox []Received) []Send {
	for _, r := range inbox {
		*o.got = append(*o.got, r.Msg.(amsg).v)
	}
	o.done = len(*o.got) >= o.want
	return nil
}
func (o *orderRecorder) Output() (int, bool) { return -1, o.done }

// TestAsyncLIFOOvertakes checks the LIFO adversary reorders a burst on a
// busy link: with one slow first message, later traffic arrives first.
func TestAsyncLIFOOvertakes(t *testing.T) {
	g, err := graph.NewBuilder(2).AddEdge(0, 1, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(g)
	var got []int64
	factory := func(view *NodeView) AsyncNode {
		if view.ID == g.ID(0) {
			return &burstSender{count: 10}
		}
		return &orderRecorder{want: 10, got: &got}
	}
	if _, err := nw.RunAsync(factory, nil, Options{
		Latency:   MaxDelayLatency(32),
		Scheduler: LIFO{},
	}); err != nil {
		t.Fatal(err)
	}
	inOrder := true
	for i, v := range got {
		if v != int64(i) {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatalf("LIFO adversary delivered the burst in FIFO order: %v", got)
	}
}

// MaxDelayLatency is a constant high-latency model for the LIFO test.
func MaxDelayLatency(d int64) LatencyModel { return constLatency{d} }

type constLatency struct{ d int64 }

func (c constLatency) Name() string                { return "const" }
func (c constLatency) Delay(h int, k uint64) int64 { return c.d }

// TestAsyncControlAccounting checks ControlMessage and TaggedMessage
// traffic lands in the synchronization-overhead columns.
func TestAsyncControlAccounting(t *testing.T) {
	g, err := graph.NewBuilder(2).AddEdge(0, 1, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(g)
	factory := func(view *NodeView) AsyncNode {
		if view.ID == g.ID(0) {
			return &ctlSender{}
		}
		return &orderRecorder{want: 1, got: new([]int64)}
	}
	res, err := nw.RunAsync(factory, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SyncMessages != 1 || res.SyncBits != 3 {
		t.Fatalf("control accounting: %d msgs / %d bits, want 1 / 3", res.SyncMessages, res.SyncBits)
	}
	if res.Messages != 1 {
		t.Fatalf("payload accounting: %d msgs, want 1", res.Messages)
	}
	if res.Sent != res.Messages+res.SyncMessages {
		t.Fatalf("conservation: %d != %d + %d", res.Sent, res.Messages, res.SyncMessages)
	}
}

type ctlSender struct{}

func (ctlSender) Init(ctx *AsyncCtx, view *NodeView) []Send {
	return []Send{{Port: 0, Msg: amsg{1}}, {Port: 0, Msg: actl{}}}
}
func (ctlSender) Deliver(ctx *AsyncCtx, view *NodeView, inbox []Received) []Send { return nil }
func (ctlSender) Output() (int, bool)                                            { return -1, true }

// TestAsyncDeterministicAcrossWorkers is the engine's core contract in
// asynchronous mode: every field of the Result is byte-identical for any
// worker count, including virtual-time accounting.
func TestAsyncDeterministicAcrossWorkers(t *testing.T) {
	g := seeded(t, "random", 300, 11, gen.WeightsDistinct)
	nw := NewNetwork(g)
	factory := func(view *NodeView) AsyncNode { return &pingNode{} }
	var ref *Result
	for _, workers := range []int{1, 2, 3, 4, 8} {
		res, err := nw.RunAsync(factory, nil, Options{
			Workers: workers,
			Latency: UniformLatency{Seed: 5, Min: 1, Max: 12},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("workers=%d: result diverges from sequential run:\nseq: %+v\ngot: %+v", workers, ref, res)
		}
	}
}
