package core

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/convergecast"
	"mstadvice/internal/graph"
	"mstadvice/internal/sim"
)

// The convergecast tests drive node streams (internal/convergecast, as
// core's node opens and steps them) round by round on fragment trees
// built here, without the engine, and compare what every relay sends and
// what the root holds against a breadth-first search written in the
// test.

// rec is the record the streams carry.
type rec = convergecast.Rec

// fragment is a test fragment tree. Node 0 is the root; every other
// node v hangs off parent[v], on port up[v] at v and down[v] at the
// parent, through an edge of weight w[v].
type fragment struct {
	parent, up, down []int
	w                []graph.Weight
	views            []*sim.NodeView
}

// newFragment builds the fragment with the given parents (parent[0] is
// ignored), tree-edge weights drawn from 1..maxW, randomly numbered
// ports and up to two unused extra ports per node.
func newFragment(rng *rand.Rand, parent []int, maxW int) *fragment {
	k := len(parent)
	f := &fragment{
		parent: append([]int(nil), parent...),
		up:     make([]int, k), down: make([]int, k),
		w:     make([]graph.Weight, k),
		views: make([]*sim.NodeView, k),
	}
	f.parent[0] = -1
	// Each node's incident tree edges, named by the child at their far
	// (or near) end, plus unused ports (-1).
	inc := make([][]int, k)
	for v := 1; v < k; v++ {
		f.w[v] = graph.Weight(1 + rng.Intn(maxW))
		inc[v] = append(inc[v], v)
		inc[f.parent[v]] = append(inc[f.parent[v]], v)
	}
	perm := rng.Perm(k)
	for u := range inc {
		for range rng.Intn(3) {
			inc[u] = append(inc[u], -1)
		}
		rng.Shuffle(len(inc[u]), func(i, j int) { inc[u][i], inc[u][j] = inc[u][j], inc[u][i] })
		portW := make([]graph.Weight, len(inc[u]))
		for p, c := range inc[u] {
			switch {
			case c == -1:
				portW[p] = graph.Weight(1 + rng.Intn(maxW))
			case c == u:
				f.up[u], portW[p] = p, f.w[u]
			default:
				f.down[c], portW[p] = p, f.w[c]
			}
		}
		adv := bitstring.New(DefaultCap + 1)
		for range DefaultCap + 1 {
			adv.AppendBit(rng.Intn(2) == 1)
		}
		id := int64(perm[u])*1000 + rng.Int63n(1000) + 1
		f.views[u] = &sim.NodeView{ID: id, N: 1 << 20, Deg: len(portW), PortW: portW, Advice: adv}
	}
	return f
}

// randomParents returns parents for a k-node tree whose first hub nodes
// after the root are the root's children; later nodes mostly extend the
// previous node, so the tree is deeper than any quota.
func randomParents(rng *rand.Rand, k, hub int) []int {
	parent := make([]int, k)
	for v := 1; v < k; v++ {
		switch {
		case v <= hub:
			parent[v] = 0
		case rng.Intn(3) > 0:
			parent[v] = v - 1
		default:
			parent[v] = rng.Intn(v)
		}
	}
	return parent
}

// levels returns the BFS order of v's subtree, children ordered by
// (weight, port at the parent), cut to its first limit entries and split
// into depth levels.
func (f *fragment) levels(v, limit int) [][]int {
	var out [][]int
	level := []int{v}
	for n := 0; len(level) > 0 && n < limit; {
		level = level[:min(len(level), limit-n)]
		out = append(out, level)
		n += len(level)
		var next []int
		for _, u := range level {
			var kids []int
			for c := range f.parent {
				if c > 0 && f.parent[c] == u {
					kids = append(kids, c)
				}
			}
			slices.SortFunc(kids, func(a, b int) int {
				return cmp.Or(cmp.Compare(f.w[a], f.w[b]), cmp.Compare(f.down[a], f.down[b]))
			})
			next = append(next, kids...)
		}
		level = next
	}
	return out
}

// collectRun is one convergecast over a fragment: sent[v][s] is what
// node v sent at slot s (copied out of its buffers), and held is the
// root's collection once nothing is left in flight.
type collectRun struct {
	sent  [][][]rec
	held  []rec
	nodes []*node
}

// deliverFn may rewrite or drop (by returning nil) the batch that node
// from sent at slot s; it must not modify recs in place.
type deliverFn func(from, s int, recs []rec) []rec

// converge runs one phase collect (final false) or final collect over
// f, with prefix cut limit: announces, every node's own record at slot
// 1, then one stream per round until no batch is in flight.
func (f *fragment) converge(t *testing.T, limit int, final bool, deliver deliverFn) *collectRun {
	t.Helper()
	k := len(f.parent)
	r := &collectRun{sent: make([][][]rec, k), nodes: make([]*node, k)}
	for v := range r.nodes {
		n := newNode(f.views[v], DefaultCap)
		if v > 0 {
			n.parentPort = f.up[v]
			n.ports[f.up[v]].farID = f.views[f.parent[v]].ID // the identifier exchange
		}
		n.windowStart(f.views[v], nil)
		r.nodes[v] = n
	}
	for v := 1; v < k; v++ {
		r.nodes[f.parent[v]].receive(f.views[f.parent[v]], sim.Received{Port: f.down[v], Msg: announceMsg{}}, nil)
	}
	out := make([][]sim.Send, k)
	for v, n := range r.nodes {
		out[v] = n.open(f.views[v], final, nil)
	}
	for s := 1; ; s++ {
		inFlight := false
		for v, sends := range out {
			if len(sends) == 0 {
				continue
			}
			if len(sends) != 1 || sends[0].Port != f.up[v] {
				t.Fatalf("node %d slot %d: sends %v, want one batch to its parent", v, s, sends)
			}
			recs := append([]rec(nil), sends[0].Msg.(*convergecast.Batch).Recs...)
			r.sent[v] = append(r.sent[v], make([][]rec, s+1-len(r.sent[v]))...)
			r.sent[v][s] = recs
			if deliver != nil {
				recs = deliver(v, s, recs)
			}
			if recs != nil {
				inFlight = true
				p := f.parent[v]
				r.nodes[p].receive(f.views[p], sim.Received{Port: f.down[v], Msg: &convergecast.Batch{Recs: recs}}, nil)
			}
		}
		if !inFlight {
			break
		}
		for v, n := range r.nodes {
			out[v] = n.cc.Step(n.parentPort, s+1, limit, phaseCharge, f.views[v], nil)
		}
	}
	r.held = append([]rec(nil), r.nodes[0].cc.Held()...)
	return r
}

// idsOf lists the records' identifiers.
func idsOf(recs []rec) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

// check compares a fault-free run against the naive BFS: every relay's
// batch at slot s is level s-1 of its subtree's cut BFS order, each
// record naming its parent, and the root holds its cut BFS order.
func (f *fragment) check(t *testing.T, r *collectRun, limit int) {
	t.Helper()
	id := func(v int) int64 { return f.views[v].ID }
	for v := 1; v < len(f.parent); v++ {
		lv := f.levels(v, limit)
		var got [][]rec
		if len(r.sent[v]) > 0 {
			got = r.sent[v][1:]
		}
		if len(got) != len(lv) {
			t.Fatalf("node %d sent %d batches, want %d", v, len(got), len(lv))
		}
		for d, level := range lv {
			want := make([]int64, len(level))
			for i, u := range level {
				want[i] = id(u)
			}
			if !slices.Equal(idsOf(got[d]), want) {
				t.Fatalf("node %d slot %d sent %v, want %v", v, d+1, idsOf(got[d]), want)
			}
			for i, u := range level {
				if x := got[d][i]; u != v && x.ParentID != id(f.parent[u]) {
					t.Fatalf("node %d slot %d: record %d names parent %d", v, d+1, u, x.ParentID)
				}
			}
		}
	}
	var want []int64
	for _, level := range f.levels(0, limit) {
		for _, u := range level {
			want = append(want, id(u))
		}
	}
	if !slices.Equal(idsOf(r.held), want) {
		t.Fatalf("root holds %v, want %v", idsOf(r.held), want)
	}
	if !convergecast.Linked(r.held) {
		t.Fatal("root's collection is not a linked BFS prefix")
	}
}

// TestSubtreeBFSOrder: on random fragment trees with weight ties, random
// port numbering and depth beyond the quota, every relay streams its
// subtree's BFS prefix level by level and the root holds its own, for
// every phase quota and for the final collect.
func TestSubtreeBFSOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := range 40 {
		hub := rng.Intn(6)
		if trial%8 == 0 {
			hub = 100 + rng.Intn(20)
		}
		f := newFragment(rng, randomParents(rng, hub+2+rng.Intn(80), hub), 1+rng.Intn(4))
		for _, limit := range []int{2, 4, 8, 16, 32} {
			r := f.converge(t, limit, false, nil)
			f.check(t, r, limit)
			size := len(f.parent)
			if got, want := convergecast.Whole(r.held), size <= limit; got != want {
				t.Fatalf("trial %d quota %d size %d: whole = %v", trial, limit, size, got)
			}
		}
		f.check(t, f.converge(t, 17, true, nil), 17)
	}
}

// TestSubtreePrefixStability: a relay forwards each level exactly once,
// in the round after it arrives, so the prefix it has sent never
// reorders; its total is the quota, even for subtrees far deeper.
func TestSubtreePrefixStability(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parent := make([]int, 100)
	for v := 1; v < len(parent); v++ {
		parent[v] = v - 1 - rng.Intn(min(v, 2)) // a path with a few forks
	}
	f := newFragment(rng, parent, 2)
	for _, limit := range []int{2, 8, 32} {
		r := f.converge(t, limit, false, nil)
		f.check(t, r, limit)
		for v := 1; v < len(parent); v++ {
			total := 0
			for _, b := range r.sent[v] {
				total += len(b)
			}
			if total > limit || counted(&r.nodes[v].cc) != total {
				t.Fatalf("quota %d: node %d sent %d records, counted %d", limit, v, total, counted(&r.nodes[v].cc))
			}
		}
	}
}

// TestSubtreeHubOrder: a hub's direct children arrive in port order, in
// one round, from degree ≥ 100; their batches must come out in (weight,
// port) order at the hub, whether it relays or is the root.
func TestSubtreeHubOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, hubAt := range []int{0, 1} {
		parent := make([]int, 2+150+40)
		for v := 2; v < len(parent); v++ {
			switch {
			case v < 152:
				parent[v] = hubAt
			default:
				parent[v] = 2 + rng.Intn(150) // grandchildren under the hub
			}
		}
		f := newFragment(rng, parent, 3)
		if f.views[hubAt].Deg < 100 {
			t.Fatalf("hub degree %d", f.views[hubAt].Deg)
		}
		for _, limit := range []int{4, 32} {
			f.check(t, f.converge(t, limit, false, nil), limit)
		}
	}
}

// TestSubtreeIncomplete: a root decodes only a whole fragment, and no
// relay sends past slot limit. Each row loses one batch: of a root with
// children a (which has child c) and b, or of a path deeper than the
// limit.
func TestSubtreeIncomplete(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// 0 = root, 1 = a, 2 = b, 3 = c (a's child).
	f := newFragment(rng, []int{0, 0, 0, 1}, 4)
	path := newFragment(rng, []int{0, 0, 1, 2, 3, 4, 5}, 4) // 0-1-…-6
	for _, row := range []struct {
		name  string
		f     *fragment
		limit int
		lose  [2]int // (node, slot) whose batch is lost; node 0 loses none
		held  int
		whole bool
	}{
		{"complete", f, 8, [2]int{0, 0}, 4, true},
		{"missing child", f, 8, [2]int{2, 1}, 3, false},
		{"missing grandchild", f, 8, [2]int{3, 1}, 3, false},
		// a's own record is lost, but a still relays c's: c names a
		// parent the root does not hold, counts toward the size and
		// leaves the fragment incomplete.
		{"missing parent", f, 8, [2]int{1, 1}, 3, false},
		// 2's own record is lost, so relay 1 is one record short of its
		// limit when 5's record reaches it at slot 5: it counts the
		// record but forwards none, and the root holds 0, 1, 3 and 4.
		{"past the last slot", path, 4, [2]int{2, 1}, 4, false},
	} {
		r := row.f.converge(t, row.limit, false, func(from, s int, recs []rec) []rec {
			if [2]int{from, s} == row.lose {
				return nil
			}
			return recs
		})
		if len(r.held) != row.held || convergecast.Whole(r.held) != row.whole {
			t.Fatalf("%s: root holds %d records, whole = %v", row.name, len(r.held), convergecast.Whole(r.held))
		}
		for v := 1; v < len(row.f.parent); v++ {
			if last := len(r.sent[v]) - 1; last > row.limit {
				t.Fatalf("%s: node %d sent at slot %d, past the limit %d", row.name, v, last, row.limit)
			}
		}
		switch row.name {
		case "missing parent":
			if r.held[2].ID != f.views[3].ID {
				t.Fatalf("%s: root holds %v", row.name, idsOf(r.held))
			}
		case "past the last slot":
			if sent := len(slices.Concat(r.sent[1]...)); sent != 3 || counted(&r.nodes[1].cc) != 4 {
				t.Fatalf("%s: node 1 sent %d records, counted %d", row.name, sent, counted(&r.nodes[1].cc))
			}
			want := []int64{path.views[0].ID, path.views[1].ID, path.views[3].ID, path.views[4].ID}
			if !slices.Equal(idsOf(r.held), want) {
				t.Fatalf("%s: root holds %v, want %v", row.name, idsOf(r.held), want)
			}
		}
	}
}

// TestSubtreeDuplicate: a root ignores a record that repeats one it
// holds, and a relay drops its own record when a cycle returns it.
func TestSubtreeDuplicate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := newFragment(rng, []int{0, 0, 1, 2}, 4) // a path 0-1-2-3
	for _, row := range []struct {
		name  string
		from  int                  // whose batch at slot 2 gains a record
		extra func(recs []rec) rec // the record it gains
	}{
		{"duplicate record", 1, func(recs []rec) rec { return recs[0] }},
		{"own record returned to a relay", 2, func([]rec) rec { return rec{ID: f.views[1].ID, ParentID: f.views[2].ID} }},
		{"own record returned to the root", 1, func([]rec) rec { return rec{ID: f.views[0].ID, ParentID: f.views[1].ID} }},
	} {
		r := f.converge(t, 8, false, func(from, s int, recs []rec) []rec {
			if from == row.from && s == 2 {
				return append(slices.Clone(recs), row.extra(recs))
			}
			return recs
		})
		if got := idsOf(slices.Concat(r.sent[1]...)); !slices.Equal(got, []int64{f.views[1].ID, f.views[2].ID, f.views[3].ID}) || counted(&r.nodes[1].cc) != 3 {
			t.Fatalf("%s: node 1 sent %v, counted %d", row.name, got, counted(&r.nodes[1].cc))
		}
		if !slices.Equal(idsOf(r.held), []int64{f.views[0].ID, f.views[1].ID, f.views[2].ID, f.views[3].ID}) {
			t.Fatalf("%s: root holds %v", row.name, idsOf(r.held))
		}
		if !convergecast.Whole(r.held) {
			t.Fatalf("%s: fragment not whole", row.name)
		}
	}
}

// counted reads the records a relay has counted against its limit since
// its convergecast opened, a count the stream keeps to itself.
func counted(s *convergecast.Stream) int {
	return int(reflect.ValueOf(s).Elem().FieldByName("sent").Int())
}
