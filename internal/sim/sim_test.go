package sim

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/reference"
)

// seeded builds the named seeded family, failing the test on an error.
func seeded(tb testing.TB, family string, n int, seed uint64, w gen.WeightMode) *graph.Graph {
	tb.Helper()
	g, err := gen.BuildSeeded(family, n, seed, gen.SeededOptions{Weights: w})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// tmsg is a test message carrying one integer; its size is IDBits.
type tmsg struct{ v int64 }

func (m tmsg) SizeBits(cm CostModel) int { return cm.IDBits }

// silent terminates immediately with output -1.
type silent struct{}

func (*silent) Start(*Ctx, *NodeView) []Send             { return nil }
func (*silent) Round(*Ctx, *NodeView, []Received) []Send { return nil }
func (*silent) Output() (int, bool)                      { return -1, true }

func TestZeroRounds(t *testing.T) {
	g := seeded(t, "ring", 5, 1, gen.WeightsDistinct)
	res, err := NewNetwork(g).Run(func(*NodeView) Node { return &silent{} }, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.Messages != 0 {
		t.Fatalf("silent run: rounds=%d msgs=%d", res.Rounds, res.Messages)
	}
}

// bfsNode builds a BFS tree from the node whose advice is the single bit 1:
// the root floods a wave; every node adopts the first port the wave
// arrived on and forwards once.
type bfsNode struct {
	isRoot  bool
	parent  int
	done    bool
	relayed bool
}

func newBFSNode(view *NodeView) Node {
	b := &bfsNode{parent: -2}
	if view.Advice.Len() == 1 && view.Advice.Bit(0) {
		b.isRoot = true
	}
	return b
}

func (b *bfsNode) Start(ctx *Ctx, view *NodeView) []Send {
	if b.isRoot {
		b.parent = -1
		b.done = true
		b.relayed = true
		return sendAll(view.Deg, tmsg{1})
	}
	return nil
}

func (b *bfsNode) Round(ctx *Ctx, view *NodeView, inbox []Received) []Send {
	if b.relayed || len(inbox) == 0 {
		return nil
	}
	b.parent = inbox[0].Port // lowest port: inboxes arrive sorted
	b.done = true
	b.relayed = true
	return sendAll(view.Deg, tmsg{1})
}

func (b *bfsNode) Output() (int, bool) { return b.parent, b.done }

func sendAll(deg int, m Message) []Send {
	out := make([]Send, deg)
	for p := range out {
		out[p] = Send{Port: p, Msg: m}
	}
	return out
}

func bfsAdvice(n int, root int) []*bitstring.BitString {
	adv := make([]*bitstring.BitString, n)
	for i := range adv {
		adv[i] = bitstring.New(1)
		adv[i].AppendBit(i == root)
	}
	return adv
}

func TestBFSWave(t *testing.T) {
	g := seeded(t, "path", 10, 2, gen.WeightsDistinct)
	res, err := NewNetwork(g).Run(newBFSNode, bfsAdvice(10, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The wave needs ecc(0) rounds to reach the far end (+1 for its relay
	// round, which the engine still executes before noticing termination).
	dist, _ := g.BFS(0)
	ecc := slices.Max(dist)
	if res.Rounds < ecc || res.Rounds > ecc+1 {
		t.Fatalf("BFS rounds = %d, want about ecc = %d", res.Rounds, ecc)
	}
	// Exactly one root; every other node's parent is its BFS predecessor.
	for u := 0; u < g.N(); u++ {
		pp := res.ParentPorts[u]
		if u == 0 {
			if pp != -1 {
				t.Fatalf("root parent = %d", pp)
			}
			continue
		}
		v := g.HalfAt(graph.NodeID(u), pp).To
		if dist[v] != dist[u]-1 {
			t.Fatalf("node %d parent %d is not one closer to the root", u, v)
		}
	}
	if res.MaxMsgBits != NewCostModel(g).IDBits {
		t.Fatalf("MaxMsgBits = %d", res.MaxMsgBits)
	}
	wantMsgs := int64(0)
	for u := 0; u < g.N(); u++ {
		wantMsgs += int64(g.Degree(graph.NodeID(u)))
	}
	if res.Messages != wantMsgs {
		t.Fatalf("Messages = %d, want %d (every node relays once)", res.Messages, wantMsgs)
	}
}

// TestParallelMatchesSequential is the round engine's core contract:
// every field of the Result, per-round statistics included, is identical
// for any worker count.
func TestParallelMatchesSequential(t *testing.T) {
	g := seeded(t, "random", 200, 3, gen.WeightsDistinct)
	adv := bfsAdvice(g.N(), 7)
	seq, err := NewNetwork(g).Run(newBFSNode, adv, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.PerRound) != seq.Rounds+1 {
		t.Fatalf("%d per-round entries for %d rounds plus Start", len(seq.PerRound), seq.Rounds)
	}
	for _, workers := range []int{2, 8} {
		par, err := NewNetwork(g).Run(newBFSNode, adv, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d diverged:\nseq: %+v\npar: %+v", workers, seq, par)
		}
	}
}

// pulseNode terminates after observing two pulses, sending one message
// after the first to force a communication round in between.
type pulseNode struct {
	sent bool
	done bool
}

func (p *pulseNode) Start(*Ctx, *NodeView) []Send { return nil }
func (p *pulseNode) Round(ctx *Ctx, view *NodeView, inbox []Received) []Send {
	if ctx.Pulse >= 2 {
		p.done = true
		return nil
	}
	if ctx.Pulse == 1 && !p.sent && view.Deg > 0 {
		p.sent = true
		return []Send{{Port: 0, Msg: tmsg{7}}}
	}
	return nil
}
func (p *pulseNode) Output() (int, bool) { return -1, p.done }

func TestPulses(t *testing.T) {
	g := seeded(t, "ring", 6, 4, gen.WeightsDistinct)
	res, err := NewNetwork(g).Run(func(*NodeView) Node { return &pulseNode{} }, nil, Options{EnablePulses: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pulses < 2 {
		t.Fatalf("expected at least 2 pulses, got %d", res.Pulses)
	}
	if res.Messages != 6 {
		t.Fatalf("Messages = %d, want 6", res.Messages)
	}
}

func TestNoPulsesWithoutOption(t *testing.T) {
	g := seeded(t, "ring", 4, 5, gen.WeightsDistinct)
	_, err := NewNetwork(g).Run(func(*NodeView) Node { return &pulseNode{} }, nil, Options{})
	if err == nil {
		t.Fatal("pulse-waiting nodes should never terminate without EnablePulses")
	}
}

// badPort sends on a port that does not exist.
type badPort struct{ done bool }

func (b *badPort) Start(ctx *Ctx, view *NodeView) []Send {
	return []Send{{Port: view.Deg, Msg: tmsg{0}}}
}
func (b *badPort) Round(*Ctx, *NodeView, []Received) []Send { return nil }
func (b *badPort) Output() (int, bool)                      { return -1, b.done }

func TestInvalidPortRejected(t *testing.T) {
	g := seeded(t, "ring", 3, 6, gen.WeightsDistinct)
	if _, err := NewNetwork(g).Run(func(*NodeView) Node { return &badPort{} }, nil, Options{}); err == nil {
		t.Fatal("expected invalid-port error")
	}
}

// doubleSend sends twice on port 0 in one round.
type doubleSend struct{}

func (d *doubleSend) Start(*Ctx, *NodeView) []Send {
	return []Send{{Port: 0, Msg: tmsg{1}}, {Port: 0, Msg: tmsg{2}}}
}
func (d *doubleSend) Round(*Ctx, *NodeView, []Received) []Send { return nil }
func (d *doubleSend) Output() (int, bool)                      { return -1, false }

func TestDoubleSendRejected(t *testing.T) {
	g := seeded(t, "ring", 3, 7, gen.WeightsDistinct)
	if _, err := NewNetwork(g).Run(func(*NodeView) Node { return &doubleSend{} }, nil, Options{}); err == nil {
		t.Fatal("expected double-send error")
	}
}

// TestDoubleSendRejectedOnDownLink: a send on a link that a Scenario
// took down is dropped, yet it still occupies its port for the round,
// so a second send there fails as a duplicate rather than as a second
// drop.
func TestDoubleSendRejectedOnDownLink(t *testing.T) {
	g := seeded(t, "ring", 3, 7, gen.WeightsDistinct)
	sc := &Scenario{Events: []ScenarioEvent{{Round: 0, Edge: g.Ports(0)[0], Action: ActionLinkDown}}}
	_, err := NewNetwork(g).Run(func(*NodeView) Node { return &doubleSend{} }, nil, Options{Scenario: sc})
	if err == nil || !strings.Contains(err.Error(), "node 0 sent twice on port 0 in round 0") {
		t.Fatalf("err = %v, want node 0's double send", err)
	}
}

// doubleSendLater behaves for two rounds, then sends twice on port 0 in
// round 3 — exercising duplicate detection once the slot arrays have
// already carried messages in earlier rounds.
type doubleSendLater struct{}

func (d *doubleSendLater) Start(*Ctx, *NodeView) []Send { return nil }
func (d *doubleSendLater) Round(ctx *Ctx, view *NodeView, inbox []Received) []Send {
	if ctx.Round == 3 {
		return []Send{{Port: 0, Msg: tmsg{1}}, {Port: 0, Msg: tmsg{2}}}
	}
	return []Send{{Port: 0, Msg: tmsg{0}}}
}
func (d *doubleSendLater) Output() (int, bool) { return -1, false }

func TestDoubleSendRejectedInLaterRound(t *testing.T) {
	g := seeded(t, "ring", 8, 40, gen.WeightsDistinct)
	for _, workers := range []int{1, 4} {
		_, err := NewNetwork(g).Run(func(*NodeView) Node { return &doubleSendLater{} }, nil,
			Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: expected double-send error", workers)
		}
	}
}

// chatter sends on port 0 every round until round 5: repeated sends on the
// same port in different rounds are legal and must not trip the
// duplicate-send check.
type chatter struct{ done bool }

func (c *chatter) Start(*Ctx, *NodeView) []Send { return []Send{{Port: 0, Msg: tmsg{0}}} }
func (c *chatter) Round(ctx *Ctx, view *NodeView, inbox []Received) []Send {
	if ctx.Round >= 5 {
		c.done = true
		return nil
	}
	return []Send{{Port: 0, Msg: tmsg{int64(ctx.Round)}}}
}
func (c *chatter) Output() (int, bool) { return -1, c.done }

func TestSamePortAcrossRoundsAllowed(t *testing.T) {
	g := seeded(t, "ring", 6, 41, gen.WeightsDistinct)
	res, err := NewNetwork(g).Run(func(*NodeView) Node { return &chatter{} }, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 6*5 {
		t.Fatalf("Messages = %d, want 30 (6 nodes x 5 sends)", res.Messages)
	}
}

// nilSender sends a nil message.
type nilSender struct{}

func (s *nilSender) Start(*Ctx, *NodeView) []Send             { return []Send{{Port: 0, Msg: nil}} }
func (s *nilSender) Round(*Ctx, *NodeView, []Received) []Send { return nil }
func (s *nilSender) Output() (int, bool)                      { return -1, false }

func TestNilMessageRejected(t *testing.T) {
	g := seeded(t, "ring", 3, 42, gen.WeightsDistinct)
	if _, err := NewNetwork(g).Run(func(*NodeView) Node { return &nilSender{} }, nil, Options{}); err == nil {
		t.Fatal("expected nil-message error")
	}
}

// scripted sends the given list at Start, from ctx.Out.
type scripted struct{ sends []Send }

func (s *scripted) Start(ctx *Ctx, view *NodeView) []Send    { return append(ctx.Out[:0], s.sends...) }
func (s *scripted) Round(*Ctx, *NodeView, []Received) []Send { return nil }
func (s *scripted) Output() (int, bool)                      { return -1, false }

// TestSendErrorOrder: a node's first bad send is its error, whatever
// kind the later ones are, and of all failing nodes the lowest is
// reported, for any worker count.
func TestSendErrorOrder(t *testing.T) {
	g := seeded(t, "ring", 8, 43, gen.WeightsDistinct) // every node has ports 0 and 1
	m := tmsg{0}
	for _, c := range []struct {
		sends []Send
		want  string
	}{
		{[]Send{{Port: 2, Msg: m}, {Port: 0, Msg: m}, {Port: 0, Msg: m}}, "node 0 sent on invalid port 2 in round 0"},
		{[]Send{{Port: 0, Msg: m}, {Port: 0, Msg: nil}, {Port: -1, Msg: m}}, "node 0 sent twice on port 0 in round 0"},
		{[]Send{{Port: 1, Msg: nil}, {Port: 1, Msg: m}, {Port: 2, Msg: m}}, "node 0 sent a nil message on port 1 in round 0"},
	} {
		for _, workers := range []int{1, 4} {
			_, err := NewNetwork(g).Run(func(*NodeView) Node { return &scripted{c.sends} }, nil, Options{Workers: workers})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("workers=%d, sends %v: err = %v, want %q", workers, c.sends, err, c.want)
			}
		}
	}
}

// panicky panics in round 1.
type panicky struct{}

func (p *panicky) Start(*Ctx, *NodeView) []Send { return nil }
func (p *panicky) Round(*Ctx, *NodeView, []Received) []Send {
	panic("boom")
}
func (p *panicky) Output() (int, bool) { return -1, false }

func TestPanicCaptured(t *testing.T) {
	g := seeded(t, "ring", 3, 8, gen.WeightsDistinct)
	_, err := NewNetwork(g).Run(func(*NodeView) Node { return &panicky{} }, nil, Options{})
	if err == nil {
		t.Fatal("expected panic to surface as an error")
	}
}

func TestAdviceLengthMismatch(t *testing.T) {
	g := seeded(t, "ring", 3, 9, gen.WeightsDistinct)
	_, err := NewNetwork(g).Run(func(*NodeView) Node { return &silent{} },
		make([]*bitstring.BitString, 2), Options{})
	if err == nil {
		t.Fatal("expected advice length error")
	}
}

// TestMaxRounds fails a run that never terminates at the fixed round
// cap, 50·(n+10) + 1000, and names the cap in the error.
func TestMaxRounds(t *testing.T) {
	g := seeded(t, "ring", 3, 10, gen.WeightsDistinct)
	_, err := NewNetwork(g).Run(func(*NodeView) Node { return &pulseNode{} }, nil, Options{})
	if err == nil {
		t.Fatal("expected a round-cap error")
	}
	if !strings.Contains(err.Error(), "after 1650 rounds") { // 50·(3+10) + 1000
		t.Fatalf("error %q does not name the cap of 1650 rounds", err)
	}
}

func TestCongestAudit(t *testing.T) {
	g := seeded(t, "path", 6, 11, gen.WeightsDistinct)
	adv := bfsAdvice(6, 0)
	// tmsg costs IDBits = 3 bits on this graph; budget 2 flags every
	// message, budget 3 flags none.
	res, err := NewNetwork(g).Run(newBFSNode, adv, Options{CongestB: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CongestViolations != res.Messages {
		t.Fatalf("violations %d, want all %d messages", res.CongestViolations, res.Messages)
	}
	res, err = NewNetwork(g).Run(newBFSNode, adv, Options{CongestB: NewCostModel(g).IDBits})
	if err != nil {
		t.Fatal(err)
	}
	if res.CongestViolations != 0 {
		t.Fatalf("violations %d, want 0", res.CongestViolations)
	}
}

// TestInboxSortedByPort asserts the engine's ordering contract: inboxes
// arrive sorted by arrival port.
func TestInboxSortedByPort(t *testing.T) {
	g := seeded(t, "complete", 9, 15, gen.WeightsDistinct)
	factory := func(view *NodeView) Node { return &inboxChecker{} }
	if _, err := NewNetwork(g).Run(factory, nil, Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
}

// inboxChecker floods all ports once and verifies the echo arrives in
// strictly increasing port order; violations panic, which the engine
// surfaces as a run error.
type inboxChecker struct {
	done bool
}

func (c *inboxChecker) Start(ctx *Ctx, view *NodeView) []Send {
	return sendAll(view.Deg, tmsg{0})
}
func (c *inboxChecker) Round(ctx *Ctx, view *NodeView, inbox []Received) []Send {
	for i := 1; i < len(inbox); i++ {
		if inbox[i].Port <= inbox[i-1].Port {
			panic("inbox not sorted by port")
		}
	}
	c.done = true
	return nil
}
func (c *inboxChecker) Output() (int, bool) { return -1, c.done }

func TestCostModel(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(3).
		AddEdge(0, 1, 1000).
		AddEdge(1, 2, 1))
	cm := NewCostModel(g)
	if cm.IDBits != 2 { // IDs 1..3
		t.Fatalf("IDBits = %d", cm.IDBits)
	}
	if cm.PortBits != 1 { // max degree 2
		t.Fatalf("PortBits = %d", cm.PortBits)
	}
	if cm.WeightBits != 10 { // 1000 < 1024
		t.Fatalf("WeightBits = %d", cm.WeightBits)
	}
	// A negative value is charged the two's-complement width that holds
	// every value present; without one the width stays unsigned.
	for _, row := range []struct {
		ids            []int64
		w              []graph.Weight
		idBits, wtBits int
	}{
		{[]int64{math.MinInt64, -1 << 62, 5}, []graph.Weight{1, 1}, 64, 1},
		{[]int64{-1, 1, 2}, []graph.Weight{1, 1}, 2 + 1, 1}, // 2 needs three bits signed
		{[]int64{-1, 1}, []graph.Weight{1}, 2, 1},
		{[]int64{1, 2, 3}, []graph.Weight{-1 << 62, 5}, 2, 63},
		{[]int64{1, 2, 3}, []graph.Weight{0, 0}, 2, 1},
	} {
		b := graph.NewBuilder(len(row.ids))
		for i, w := range row.w {
			b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), w)
		}
		g, err := graph.FromEdgeList(len(row.ids), row.ids, slices.Clone(reference.MustBuild(b).Edges()), 1)
		if err != nil {
			t.Fatal(err)
		}
		cm := NewCostModel(g)
		if cm.IDBits != row.idBits || cm.WeightBits != row.wtBits {
			t.Errorf("IDs %v, weights %v: IDBits = %d, WeightBits = %d; want %d, %d",
				row.ids, row.w, cm.IDBits, cm.WeightBits, row.idBits, row.wtBits)
		}
	}
}

func TestNodeViewContents(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(2).AddEdge(0, 1, 42))
	var got *NodeView
	factory := func(view *NodeView) Node {
		if view.ID == 1 {
			got = view
		}
		return &silent{}
	}
	if _, err := NewNetwork(g).Run(factory, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("factory never saw node with ID 1")
	}
	if got.N != 2 || got.Deg != 1 || got.PortW[0] != 42 {
		t.Fatalf("view = %+v", got)
	}
	if got.Advice == nil || got.Advice.Len() != 0 {
		t.Fatal("nil advice should surface as an empty string")
	}
}

// finalSender sends one message on port 0 in the very round it
// terminates, so the message is delivered but never consumed.
type finalSender struct{ done bool }

func (f *finalSender) Start(*Ctx, *NodeView) []Send { return nil }
func (f *finalSender) Round(ctx *Ctx, view *NodeView, inbox []Received) []Send {
	if ctx.Round == 1 {
		f.done = true
		return []Send{{Port: 0, Msg: tmsg{1}}}
	}
	return nil
}
func (f *finalSender) Output() (int, bool) { return -1, f.done }

// TestUndeliveredFinalMessagesAccounted pins the conservation bugfix:
// messages sent in the terminating round used to vanish from the
// accounting; now they surface in Result.Undelivered and the totals
// conserve.
func TestUndeliveredFinalMessagesAccounted(t *testing.T) {
	g := seeded(t, "ring", 6, 50, gen.WeightsDistinct)
	res, err := NewNetwork(g).Run(func(*NodeView) Node { return &finalSender{} }, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 6 || res.Messages != 6 {
		t.Fatalf("sent %d delivered %d, want 6/6", res.Sent, res.Messages)
	}
	if res.Undelivered != 6 {
		t.Fatalf("Undelivered = %d, want all 6 final-round messages", res.Undelivered)
	}
	checkConservation(t, res)
}

// checkConservation asserts the Result's message-accounting invariant.
func checkConservation(t *testing.T, res *Result) {
	t.Helper()
	if res.Sent != res.Messages+res.LinkDropped {
		t.Fatalf("conservation violated: sent %d != delivered %d + link-dropped %d",
			res.Sent, res.Messages, res.LinkDropped)
	}
	if res.Undelivered < 0 || res.Undelivered > res.Messages {
		t.Fatalf("Undelivered = %d outside [0, %d]", res.Undelivered, res.Messages)
	}
}

// TestConservationAcrossModes runs the BFS wave under clean and Scenario
// conditions and asserts the conservation invariant in each.
func TestConservationAcrossModes(t *testing.T) {
	g := seeded(t, "complete", 8, 51, gen.WeightsDistinct)
	adv := bfsAdvice(8, 0)
	opts := []struct {
		name string
		opt  Options
	}{
		{"clean", Options{}},
		{"scenario", Options{Scenario: &Scenario{Events: []ScenarioEvent{
			{Round: 0, Edge: 0, Action: ActionLinkDown},
			{Round: 1, Edge: 1, Action: ActionLinkDown},
			{Round: 2, Edge: 0, Action: ActionLinkUp},
		}}}},
	}
	for _, tc := range opts {
		res, err := NewNetwork(g).Run(newBFSNode, adv, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkConservation(t, res)
		if tc.name == "scenario" && res.LinkDropped == 0 {
			t.Fatal("scenario with failed links dropped nothing")
		}
	}
}

// TestScenarioLinkDown fails every ring edge incident to node 0's ports
// before the run starts: the BFS wave from node 0 must starve (it can
// never reach its neighbours), surfacing as a round-cap error — the
// protocol fails loudly, not silently wrong.
func TestScenarioLinkDown(t *testing.T) {
	g := seeded(t, "ring", 5, 52, gen.WeightsDistinct)
	var events []ScenarioEvent
	for p := 0; p < g.Degree(0); p++ {
		events = append(events, ScenarioEvent{Round: 0, Edge: g.HalfAt(0, p).Edge, Action: ActionLinkDown})
	}
	_, err := NewNetwork(g).Run(newBFSNode, bfsAdvice(5, 0), Options{
		Scenario: &Scenario{Events: events},
	})
	if err == nil {
		t.Fatal("expected starvation with the root cut off")
	}
}

// weightWatcher records the weight it observes on port 0 each round and
// terminates after round 3.
type weightWatcher struct {
	view *NodeView
	seen []graph.Weight
	done bool
}

func (w *weightWatcher) Start(*Ctx, *NodeView) []Send { return nil }
func (w *weightWatcher) Round(ctx *Ctx, view *NodeView, inbox []Received) []Send {
	w.seen = append(w.seen, view.PortW[0])
	if ctx.Round >= 3 {
		w.done = true
		return nil
	}
	return []Send{{Port: 0, Msg: tmsg{0}}} // keep the run alive
}
func (w *weightWatcher) Output() (int, bool) { return -1, w.done }

// TestScenarioWeightPerturbation checks a weight event becomes visible in
// both endpoints' views exactly at its round, and that the graph itself
// is untouched.
func TestScenarioWeightPerturbation(t *testing.T) {
	g := reference.MustBuild(graph.NewBuilder(2).AddEdge(0, 1, 5))
	watchers := map[int64]*weightWatcher{}
	factory := func(view *NodeView) Node {
		w := &weightWatcher{view: view}
		watchers[view.ID] = w
		return w
	}
	res, err := NewNetwork(g).Run(factory, nil, Options{
		Scenario: &Scenario{Events: []ScenarioEvent{{Round: 2, Edge: 0, Action: ActionSetWeight, W: 9}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res)
	for id, w := range watchers {
		want := []graph.Weight{5, 9, 9}
		if len(w.seen) != len(want) {
			t.Fatalf("node %d observed %v", id, w.seen)
		}
		for i := range want {
			if w.seen[i] != want[i] {
				t.Fatalf("node %d observed %v, want %v", id, w.seen, want)
			}
		}
	}
	if g.Weight(0) != 5 {
		t.Fatalf("scenario mutated the graph: weight %d", g.Weight(0))
	}
}

// TestScenarioDeterministicAcrossWorkers: scenario fault accounting uses
// the same barrier-applied state for every worker count, so results are
// byte-identical.
func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	g := seeded(t, "random", 200, 53, gen.WeightsDistinct)
	// Chatter nodes send on port 0 every round, so the port-0 edges of
	// nodes 0 and 1 carry traffic in round 1.
	a, b := g.Ports(0)[0], g.Ports(1)[0]
	if a == b {
		b = g.Ports(2)[0]
	}
	sc := &Scenario{Events: []ScenarioEvent{
		{Round: 1, Edge: a, Action: ActionLinkDown},
		{Round: 1, Edge: b, Action: ActionLinkDown},
		{Round: 2, Edge: a, Action: ActionLinkUp},
		{Round: 2, Edge: 40, Action: ActionSetWeight, W: 77},
	}}
	run := func(workers int) *Result {
		res, err := NewNetwork(g).Run(func(*NodeView) Node { return &chatter{} }, nil,
			Options{Workers: workers, Scenario: sc})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	want := run(1)
	if want.LinkDropped == 0 {
		t.Fatal("scenario dropped nothing; test is vacuous")
	}
	checkConservation(t, want)
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d diverged:\nseq: %+v\npar: %+v", workers, want, got)
		}
	}
}

// TestSlotTableMatchesFarPorts checks the round engine's slot table
// against the graph's own far endpoint and far port at every half-edge
// of every family, after a deletion batch has swap-removed ports.
func TestSlotTableMatchesFarPorts(t *testing.T) {
	for _, fam := range gen.Names() {
		g := seeded(t, fam, 64, 5, gen.WeightsRandom)
		// Up to three edges outside a BFS tree: deleting them keeps the
		// graph connected and moves other edges into their ports.
		_, parentPort := g.BFS(0)
		tree := make([]bool, g.M())
		for u, p := range parentPort {
			if p >= 0 {
				tree[g.Ports(graph.NodeID(u))[p]] = true
			}
		}
		var del []graph.EdgeID
		for e := range tree {
			if !tree[e] && len(del) < 3 {
				del = append(del, graph.EdgeID(e))
			}
		}
		if err := g.ApplyBatch(graph.Batch{Deletions: del}); err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		b, err := NewNetwork(g).newBase(nil, Options{}, true)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for u := range g.N() {
			uid := graph.NodeID(u)
			for p := range g.Degree(uid) {
				want := g.HalfOffset(g.HalfAt(uid, p).To) + g.DstPort(uid, p)
				if got := int(b.far[g.HalfOffset(uid)+p]); got != want {
					t.Fatalf("%s after deleting %v: slot of (%d, %d) = %d, want %d", fam, del, u, p, got, want)
				}
			}
		}
	}
}

// TestScenarioValidation rejects malformed scenarios up front.
func TestScenarioValidation(t *testing.T) {
	g := seeded(t, "ring", 4, 54, gen.WeightsDistinct)
	bad := []*Scenario{
		{Events: []ScenarioEvent{{Round: -1, Edge: 0, Action: ActionLinkDown}}},
		{Events: []ScenarioEvent{{Round: 0, Edge: 99, Action: ActionLinkDown}}},
		{Events: []ScenarioEvent{{Round: 0, Edge: 0, Action: ActionSetWeight, W: 0}}},
		{Events: []ScenarioEvent{{Round: 0, Edge: 0, Action: ScenarioAction(42)}}},
	}
	for i, sc := range bad {
		_, err := NewNetwork(g).Run(func(*NodeView) Node { return &silent{} }, nil, Options{Scenario: sc})
		if err == nil {
			t.Fatalf("scenario %d accepted", i)
		}
	}
}

func BenchmarkEngineBFS(b *testing.B) {
	g := seeded(b, "random", 2000, 1, gen.WeightsDistinct)
	adv := bfsAdvice(g.N(), 0)
	nw := NewNetwork(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Run(newBFSNode, adv, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
