// Package service is the advice-serving layer: an in-memory, sharded
// registry of stored oracle runs (internal/store snapshots) that answers
// concurrent per-node advice queries, reconstructs and verifies full
// rooted MSTs from the stored advice, and absorbs batched dynamic
// updates — the paper's oracle turned into a long-lived server, which is
// exactly the model's interaction pattern: each node asks the oracle for
// its few bits and computes the MST locally.
//
// # Concurrency model
//
// Two independent mechanisms keep the read path wait-free against
// writers (DESIGN.md §2.6):
//
//   - the registry is split into shards (graph ID → FNV-1a hash →
//     shard); each shard guards its id → entry map with an RWMutex that
//     is write-locked only on Register/Drop, so lookups from any number
//     of goroutines proceed in parallel and never contend with queries
//     on other shards;
//   - each entry publishes its state through an atomic pointer to an
//     immutable Epoch (graph snapshot + advice assignment + sequence
//     number). Readers load the pointer once and work on a frozen,
//     never-mutated epoch; writers prepare the next epoch on the side —
//     clone the advisor's live graph, copy the advice slice — and
//     publish it with one atomic swap (copy-on-write). A reader
//     observing epoch k keeps a fully consistent (graph, advice) pair
//     even while epoch k+1 is being built, and never blocks, because no
//     lock sits anywhere on its path.
//
// Writers serialize per entry (entry.mu); updates to different graphs
// run concurrently.
//
// The dynamic.Advisor an entry needs for updates is built lazily on the
// first Update: registering a stored snapshot costs O(file) — the whole
// point of the store — and read-only entries never pay the advisor's
// initial oracle + sensitivity run.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mstadvice/internal/advice"
	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/core"
	"mstadvice/internal/dynamic"
	"mstadvice/internal/graph"
	"mstadvice/internal/hier"
	"mstadvice/internal/problem"
	"mstadvice/internal/problem/mstp"
	_ "mstadvice/internal/problem/topo" // register the topo problem for serving
	"mstadvice/internal/sim"
	"mstadvice/internal/store"
)

// numShards is the registry fan-out. 16 shards keep shard-lock
// contention negligible up to hundreds of concurrent clients while the
// per-shard maps stay small enough to stay cache-resident.
const numShards = 16

// Epoch is one immutable published state of a graph: readers hold it
// freely, nothing in it is ever mutated after publication.
type Epoch struct {
	// Seq increments with every published update, starting at 0 for the
	// registered snapshot. Replies carry it so clients can correlate
	// answers across an update.
	Seq uint64
	// Problem is the advice problem this epoch's advice encodes
	// (DESIGN.md §2.8); it never changes across updates of an entry.
	Problem string
	// Cap is the problem's scalar oracle parameter the advice was built
	// with (store.Snapshot.Cap); constant across an entry's epochs. The
	// replication layer needs it to encode an epoch back into a snapshot
	// that rebuilds the same oracle (DESIGN.md §2.10).
	Cap int
	// Graph is a private snapshot; no advisor will ever patch it.
	Graph *graph.Graph
	// Root is the designated root (the MST root for mst, the flood
	// origin for topo).
	Root graph.NodeID
	// Advice is the per-node assignment, byte-identical to a fresh oracle
	// run on Graph.
	Advice []*bitstring.BitString
	// Tiers are the optional coarse instances of a tiered snapshot
	// (store version 3, built by hier.BuildTiers), ascending by level;
	// nil when the snapshot is flat. Like everything else in an epoch
	// they are immutable once published: updates rebuild the tiers on
	// the next epoch's graph, at the levels of the entry's first epoch,
	// rather than patching these.
	Tiers []store.Tier

	// decodeMu guards the lazily computed session cache: the full
	// local-MST reconstruction is deterministic per epoch, so it runs at
	// most once per epoch no matter how many clients ask, and a canceled
	// run leaves the cache empty for the next caller instead of
	// poisoning it. Advice readers never touch this lock.
	decodeMu sync.Mutex
	session  *Session
}

// Session is the result of replaying the problem's canonical distributed
// decoder against an epoch's stored advice — the full rooted MST for
// mst, the per-node class tags for topo — without re-running the oracle.
type Session struct {
	Seq     uint64 `json:"epoch"`
	Problem string `json:"problem"`
	// Root is the node that claimed the MST root, or -1 on problems
	// without one.
	Root graph.NodeID `json:"root"`
	// ParentPorts is the raw per-node decoder output: parent ports for
	// mst, class tags for topo (the historical field name is part of the
	// wire format).
	ParentPorts []int        `json:"parent_ports"`
	Rounds      int          `json:"rounds"`
	Verified    bool         `json:"verified"`
	VerifyErr   string       `json:"verify_error,omitempty"`
	MSTWeight   graph.Weight `json:"mst_weight"`
	// Output is the problem's one-line typed measurement.
	Output string `json:"output,omitempty"`
}

// AdviceReply answers one per-node advice query.
type AdviceReply struct {
	Node  int    `json:"node"`
	Bits  string `json:"bits"` // 0/1 string, LSB of the paper's layout first
	Len   int    `json:"len"`
	Epoch uint64 `json:"epoch"`
}

// Info summarises one registered graph.
type Info struct {
	ID        string  `json:"id"`
	Problem   string  `json:"problem"`
	N         int     `json:"n"`
	M         int     `json:"m"`
	Root      int     `json:"root"`
	Epoch     uint64  `json:"epoch"`
	MaxBits   int     `json:"advice_max_bits"`
	AvgBits   float64 `json:"advice_avg_bits"`
	TotalBits int     `json:"advice_total_bits"`
	// TierLevels lists the levels of the epoch's tiered coarse
	// instances, ascending; absent on flat snapshots.
	TierLevels []int `json:"tier_levels,omitempty"`
}

// UpdateReply reports how a batch was absorbed.
type UpdateReply struct {
	Epoch       uint64 `json:"epoch"`
	Incremental bool   `json:"incremental"`
	Reencoded   int    `json:"nodes_reencoded"`
}

// Stats counts the service's lifetime work (atomic, read via Snapshot).
type Stats struct {
	Queries    uint64 `json:"queries"`
	Decodes    uint64 `json:"decodes"`
	Updates    uint64 `json:"updates"`
	Registered uint64 `json:"registered"`
}

type entry struct {
	id   string
	cap  int
	prob problem.Problem
	cur  atomic.Pointer[Epoch]

	// mu serializes writers; readers never take it.
	mu  sync.Mutex
	adv *dynamic.Advisor // lazily built on first Update, guarded by mu
	// tierLevels are the tier levels of the entry's first epoch, from
	// Register or the first Publish; every Update rebuilds the tiers at
	// them, so a shallower tower clamps only its own epoch.
	tierLevels []int
}

type shard struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// Service is the sharded advice server. The zero value is not usable;
// call New.
type Service struct {
	shards [numShards]shard

	// met is the service's metric set (DESIGN.md §2.11); the lifetime
	// Stats counters are views over it.
	met *svcMetrics

	// hookMu guards hooks; reads on the publish path take it shared.
	hookMu sync.RWMutex
	hooks  []func(id string, ep *Epoch)
}

// ErrNotFound marks lookups of graphs or tiers that are not registered;
// the HTTP layer maps it to 404 and the replication client to its
// not-found wire code. Test with errors.Is (or IsNotFound).
var ErrNotFound = errors.New("not found")

// IsNotFound reports whether err is a missing-graph or missing-tier
// lookup failure.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

// errDuplicateID marks a Register under an ID already in use; the HTTP
// layer maps it to 409. Every Register error quotes the ID, so only
// errors.Is tells this one apart.
var errDuplicateID = errors.New("already registered")

// OnPublish registers fn to run synchronously with every epoch
// publication of every graph: the registered snapshot's epoch 0 and each
// epoch an update (or an external Publish) installs. Calls for one graph
// are ordered by epoch — the hook runs under the entry's writer lock —
// so a subscriber sees a consistent prefix of the epoch history; hooks
// must not call back into the publishing entry. Register hooks before
// serving traffic: the list is append-only and never removed from.
func (s *Service) OnPublish(fn func(id string, ep *Epoch)) {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	s.hooks = append(s.hooks, fn)
}

func (s *Service) firePublish(id string, ep *Epoch) {
	s.met.shardEpochMax[shardIndex(id)].Max(int64(ep.Seq))
	s.hookMu.RLock()
	hooks := s.hooks
	s.hookMu.RUnlock()
	for _, fn := range hooks {
		fn(id, ep)
	}
}

// New returns an empty service.
func New() *Service {
	s := &Service{met: newSvcMetrics()}
	for i := range s.shards {
		s.shards[i].entries = make(map[string]*entry)
	}
	return s
}

func shardIndex(id string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(id))
	return h.Sum32() % numShards
}

func (s *Service) shardFor(id string) *shard {
	return &s.shards[shardIndex(id)]
}

// Register publishes a snapshot under the given ID. Snapshots without a
// stored advice assignment get one computed here (one oracle run);
// snapshots with advice are served as stored, in O(size) — this is the
// "load a precomputed run without re-running Borůvka" path. The snapshot
// must not be mutated by the caller afterwards: the service takes
// ownership.
func (s *Service) Register(id string, snap *store.Snapshot) error {
	t0 := time.Now()
	if err := checkID(id); err != nil {
		return err
	}
	if snap == nil || snap.Graph == nil {
		return fmt.Errorf("service: nil snapshot for %q", id)
	}
	if snap.Graph.N() == 0 {
		return fmt.Errorf("service: empty graph for %q", id)
	}
	probName := snap.Problem
	if probName == "" {
		probName = mstp.Name
	}
	prob, err := problem.ByName(probName)
	if err != nil {
		return fmt.Errorf("service: registering %q: %w", id, err)
	}
	capBits := snap.Cap
	if capBits <= 0 && probName == mstp.Name {
		capBits = core.DefaultCap // the paper's c+1 budget; other problems define their own zero
	}
	adviceBits := snap.Advice
	if adviceBits == nil {
		adviceBits, err = prob.Encode(snap.Graph, snap.Root, problem.EncodeOptions{Param: capBits})
		if err != nil {
			return fmt.Errorf("service: building advice for %q: %w", id, err)
		}
	}
	if len(adviceBits) != snap.Graph.N() {
		return fmt.Errorf("service: %q has %d advice strings for %d nodes", id, len(adviceBits), snap.Graph.N())
	}
	e := &entry{id: id, cap: capBits, prob: prob, tierLevels: tierLevels(snap.Tiers)}
	first := &Epoch{Problem: probName, Cap: capBits, Graph: snap.Graph, Root: snap.Root, Advice: adviceBits, Tiers: snap.Tiers}
	e.cur.Store(first)
	// The entry's writer lock is held across insertion and the publish
	// hook so an update racing the registration cannot fire its hook
	// before epoch 0's — subscribers see epochs in order.
	e.mu.Lock()
	defer e.mu.Unlock()
	sh := s.shardFor(id)
	sh.mu.Lock()
	if _, dup := sh.entries[id]; dup {
		sh.mu.Unlock()
		return fmt.Errorf("service: graph %q %w", id, errDuplicateID)
	}
	sh.entries[id] = e
	sh.mu.Unlock()
	s.met.shardEntries[shardIndex(id)].Add(1)
	s.firePublish(id, first)
	s.met.op("register", t0)
	return nil
}

// checkID enforces the graph-ID rule of Register and Publish: non-empty
// and at most store.MaxString bytes, the bound every reader of the epoch
// log and the replica wire applies.
func checkID(id string) error {
	if id == "" {
		return fmt.Errorf("service: empty graph ID")
	}
	if len(id) > store.MaxString {
		return fmt.Errorf("service: graph ID of %d bytes exceeds the %d limit", len(id), store.MaxString)
	}
	return nil
}

// Publish installs an externally produced epoch — the replication
// follower's apply path (DESIGN.md §2.10): a replica tails the primary's
// epoch log and publishes each record through the same copy-on-write
// swap local updates use, so its readers are wait-free and see a
// consistent prefix of the primary's history. The snapshot must carry
// its advice (a follower never re-runs the oracle — that could diverge)
// and seq must extend the entry's history by exactly one; the first
// publication of a graph accepts any seq (a log compacted or joined
// mid-history still replays in order from its own first record).
func (s *Service) Publish(id string, snap *store.Snapshot, seq uint64) error {
	t0 := time.Now()
	if err := checkID(id); err != nil {
		return err
	}
	if snap == nil || snap.Graph == nil || snap.Graph.N() == 0 {
		return fmt.Errorf("service: empty snapshot published for %q", id)
	}
	if snap.Advice == nil {
		return fmt.Errorf("service: snapshot published for %q carries no advice", id)
	}
	if len(snap.Advice) != snap.Graph.N() {
		return fmt.Errorf("service: %q has %d advice strings for %d nodes", id, len(snap.Advice), snap.Graph.N())
	}
	probName := snap.Problem
	if probName == "" {
		probName = mstp.Name
	}
	prob, err := problem.ByName(probName)
	if err != nil {
		return fmt.Errorf("service: publishing %q: %w", id, err)
	}
	ep := &Epoch{
		Seq: seq, Problem: probName, Cap: snap.Cap,
		Graph: snap.Graph, Root: snap.Root, Advice: snap.Advice, Tiers: snap.Tiers,
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	e := sh.entries[id]
	if e == nil {
		e = &entry{id: id, cap: snap.Cap, prob: prob, tierLevels: tierLevels(snap.Tiers)}
		e.cur.Store(ep)
		e.mu.Lock()
		defer e.mu.Unlock()
		sh.entries[id] = e
		sh.mu.Unlock()
		s.met.shardEntries[shardIndex(id)].Add(1)
		s.firePublish(id, ep)
		s.met.op("publish", t0)
		return nil
	}
	sh.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	prev := e.cur.Load()
	if prev.Problem != probName {
		return fmt.Errorf("service: %q is registered for problem %q, publication says %q", id, prev.Problem, probName)
	}
	if seq != prev.Seq+1 {
		return fmt.Errorf("service: %q is at epoch %d, publication of %d breaks the consistent prefix", id, prev.Seq, seq)
	}
	// An externally published epoch invalidates a locally built advisor:
	// its live graph no longer matches the entry's history.
	e.adv = nil
	e.cur.Store(ep)
	s.met.updates.Inc()
	s.firePublish(id, ep)
	s.met.op("publish", t0)
	return nil
}

// Drop removes a graph. In-flight readers holding its epoch finish
// normally (the epoch is immutable and unreferenced afterwards).
func (s *Service) Drop(id string) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[id]; !ok {
		return false
	}
	delete(sh.entries, id)
	s.met.shardEntries[shardIndex(id)].Add(-1)
	return true
}

func (s *Service) lookup(id string) (*entry, error) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	e := sh.entries[id]
	sh.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("service: unknown graph %q: %w", id, ErrNotFound)
	}
	return e, nil
}

// Epoch returns the current published epoch of a graph. Bulk readers can
// hold it and index Advice directly; it will never change under them.
func (s *Service) Epoch(id string) (*Epoch, error) {
	e, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return e.cur.Load(), nil
}

// Advice answers one per-node query from the current epoch: AdviceBits,
// formatted for the HTTP reply.
func (s *Service) Advice(id string, node int) (AdviceReply, error) {
	a, seq, err := s.AdviceBits(id, node)
	if err != nil {
		return AdviceReply{}, err
	}
	return AdviceReply{Node: node, Bits: a.String(), Len: a.Len(), Epoch: seq}, nil
}

// AdviceBits answers one per-node query from the current epoch with the
// raw bit string and the epoch. This is the hot path of every reader —
// in-process, HTTP and the replica wire: one shard RLock for the map
// lookup, one atomic pointer load, one slice index, no allocation.
func (s *Service) AdviceBits(id string, node int) (*bitstring.BitString, uint64, error) {
	e, err := s.lookup(id)
	if err != nil {
		return nil, 0, err
	}
	ep := e.cur.Load()
	if node < 0 || node >= len(ep.Advice) {
		return nil, 0, fmt.Errorf("service: node %d out of range [0,%d) in graph %q", node, len(ep.Advice), id)
	}
	s.met.queries.Inc()
	return ep.Advice[node], ep.Seq, nil
}

// TierReply answers one tier query: the coarse instance of the
// requested level, shipped as a standalone flat (version 2) store
// snapshot the client decodes and runs the unmodified flat scheme on,
// plus the original-edge hints that ground every coarse edge back in
// the served graph.
type TierReply struct {
	Level int    `json:"level"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	Root  int    `json:"root"`
	Epoch uint64 `json:"epoch"`
	// OrigEdges[e] is the edge of the full graph realizing coarse edge e.
	OrigEdges []int `json:"orig_edges"`
	// Snapshot is the encoded flat snapshot of the coarse instance
	// (base64 in JSON).
	Snapshot []byte `json:"snapshot"`
}

// tierOf selects a tier within one frozen epoch, so callers pairing the
// tier with other epoch state never straddle an update.
func tierOf(ep *Epoch, id string, level int) (*store.Tier, error) {
	if len(ep.Tiers) == 0 {
		return nil, fmt.Errorf("service: graph %q has no tiers: %w", id, ErrNotFound)
	}
	if level <= 0 {
		return &ep.Tiers[len(ep.Tiers)-1], nil
	}
	for i := range ep.Tiers {
		if ep.Tiers[i].Level == level {
			return &ep.Tiers[i], nil
		}
	}
	return nil, fmt.Errorf("service: graph %q has no tier at level %d (available: %v): %w", id, level, tierLevels(ep.Tiers), ErrNotFound)
}

// TierSnapshot serves the requested tier (level ≤ 0: the coarsest) as
// an encoded standalone flat snapshot of the coarse instance — the bytes
// a budget-constrained client stores instead of the full flat snapshot,
// paying the hierarchical decoder's extra rounds at query time. HTTP and
// the replica wire both serve tiers through it.
func (s *Service) TierSnapshot(id string, level int) (TierReply, error) {
	e, err := s.lookup(id)
	if err != nil {
		return TierReply{}, err
	}
	ep := e.cur.Load()
	tier, err := tierOf(ep, id, level)
	if err != nil {
		return TierReply{}, err
	}
	blob, err := store.Encode(&store.Snapshot{
		Problem: ep.Problem,
		Graph:   tier.Graph,
		Root:    tier.Root,
		Cap:     e.cap,
		Advice:  tier.Advice,
		Version: 2,
	})
	if err != nil {
		return TierReply{}, fmt.Errorf("service: encoding tier %d of %q: %w", tier.Level, id, err)
	}
	orig := make([]int, len(tier.OrigEdge))
	for i, oe := range tier.OrigEdge {
		orig[i] = int(oe)
	}
	s.met.queries.Inc()
	return TierReply{
		Level: tier.Level, N: tier.Graph.N(), M: tier.Graph.M(), Root: int(tier.Root),
		Epoch: ep.Seq, OrigEdges: orig, Snapshot: blob,
	}, nil
}

func tierLevels(tiers []store.Tier) []int {
	ls := make([]int, len(tiers))
	for i := range tiers {
		ls[i] = tiers[i].Level
	}
	return ls
}

// DecodeSession replays the distributed Theorem 3 decoder against the
// epoch's stored advice — not a fresh oracle run — and returns the full
// rooted MST with its verification verdict. The result is computed once
// per epoch and cached; concurrent callers share the one run. ctx
// cancels a run in progress at round granularity.
func (s *Service) DecodeSession(ctx context.Context, id string) (*Session, error) {
	e, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	ep := e.cur.Load()
	ep.decodeMu.Lock()
	defer ep.decodeMu.Unlock()
	if ep.session == nil {
		t0 := time.Now()
		sess, err := decodeEpoch(ctx, e.prob, ep)
		if err != nil {
			return nil, err
		}
		ep.session = sess
		s.met.decodes.Inc()
		s.met.op("decode", t0)
	}
	return ep.session, nil
}

// decodeEpoch runs the problem's canonical decoder on the stored advice
// and judges the output with the problem's verifier (advice.DecodeCtx).
func decodeEpoch(ctx context.Context, prob problem.Problem, ep *Epoch) (*Session, error) {
	res, err := advice.DecodeCtx(ctx, prob.Scheme(), ep.Graph, ep.Root, ep.Advice, sim.Options{})
	if err != nil {
		return nil, fmt.Errorf("service: decoding epoch %d: %w", ep.Seq, err)
	}
	sess := &Session{
		Seq:         ep.Seq,
		Problem:     prob.Name(),
		Root:        res.Root,
		ParentPorts: res.ParentPorts,
		Rounds:      res.Rounds,
		Verified:    res.Verified,
		Output:      res.Output.String(),
	}
	if res.VerifyErr != nil {
		sess.VerifyErr = res.VerifyErr.Error()
	}
	if mo, ok := res.Output.(advice.MSTOutput); ok {
		sess.MSTWeight = mo.Weight
	}
	return sess, nil
}

// Update applies one batch of weight changes and deletions and publishes
// the next epoch. Readers keep answering from the previous epoch until
// the single atomic swap; they never wait. Writers to the same graph
// serialize; the first update pays the advisor construction (one oracle
// + sensitivity run seeded from the current epoch).
func (s *Service) Update(ctx context.Context, id string, b graph.Batch) (*UpdateReply, error) {
	t0 := time.Now()
	e, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prob.Name() != mstp.Name {
		// Generic path for problems without an incremental advisor: apply
		// the batch to a private clone, re-run the problem's oracle, and
		// publish — same epoch discipline, full re-encode.
		prev := e.cur.Load()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("service: update of %q canceled: %w", id, err)
		}
		g := prev.Graph.Clone()
		if err := g.ApplyBatch(b); err != nil {
			return nil, fmt.Errorf("service: update of %q: %w", id, err)
		}
		adviceBits, err := e.prob.Encode(g, prev.Root, problem.EncodeOptions{Param: e.cap})
		if err != nil {
			return nil, fmt.Errorf("service: re-encoding %q: %w", id, err)
		}
		// Tiers are an MST construct (hier.BuildTiers); a non-mst entry
		// cannot carry meaningful ones, so none are rebuilt here.
		next := &Epoch{Seq: prev.Seq + 1, Problem: prev.Problem, Cap: prev.Cap, Root: prev.Root, Graph: g, Advice: adviceBits}
		e.cur.Store(next)
		s.met.updates.Inc()
		s.firePublish(id, next)
		s.met.op("update", t0)
		return &UpdateReply{Epoch: next.Seq, Incremental: false, Reencoded: g.N()}, nil
	}
	if e.adv == nil {
		ep := e.cur.Load()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("service: update of %q canceled: %w", id, err)
		}
		adv, err := dynamic.NewAdvisor(ep.Graph.Clone(), ep.Root, e.cap)
		if err != nil {
			return nil, fmt.Errorf("service: building advisor for %q: %w", id, err)
		}
		e.adv = adv
	}
	res, err := e.adv.UpdateCtx(ctx, b)
	if err != nil {
		return nil, fmt.Errorf("service: update of %q: %w", id, err)
	}
	prev := e.cur.Load()
	next := &Epoch{
		Seq:     prev.Seq + 1,
		Problem: prev.Problem,
		Cap:     prev.Cap,
		Root:    e.adv.Root(),
		// The advisor owns its live graph and patches it in place on the
		// next update; published epochs need a frozen copy.
		Graph: e.adv.Graph().Clone(),
		// Advice strings are immutable once published (the advisor
		// replaces, never mutates, per-node strings), so copying the
		// slice of pointers is enough.
		Advice: append([]*bitstring.BitString(nil), e.adv.Advice()...),
	}
	if len(e.tierLevels) > 0 {
		// The incremental advisor maintains the flat advice, not the
		// contraction tower, so a tiered entry pays one decomposition per
		// update (pass 1 alone: the tiers read only its contraction maps)
		// to rebuild its tiers on the new graph, at the levels it was
		// registered with. Readers keep serving the previous epoch's tiers
		// meanwhile.
		d, err := boruvka.DecomposeOpt(next.Graph, next.Root, boruvka.Options{KeepPhases: 1})
		if err != nil {
			return nil, fmt.Errorf("service: rebuilding tiers for %q: %w", id, err)
		}
		tiers, err := hier.BuildTiers(d, hier.HierOptions{Levels: e.tierLevels, Cap: e.cap})
		if err != nil {
			return nil, fmt.Errorf("service: rebuilding tiers for %q: %w", id, err)
		}
		next.Tiers = tiers
	}
	e.cur.Store(next)
	s.met.updates.Inc()
	s.firePublish(id, next)
	s.met.op("update", t0)
	reply := &UpdateReply{Epoch: next.Seq, Incremental: res.Incremental, Reencoded: len(res.Changed)}
	return reply, nil
}

// InfoFor summarises one graph's current epoch.
func (s *Service) InfoFor(id string) (Info, error) {
	e, err := s.lookup(id)
	if err != nil {
		return Info{}, err
	}
	return infoOf(id, e.cur.Load()), nil
}

func infoOf(id string, ep *Epoch) Info {
	st := advice.Measure(ep.Advice, ep.Graph.N())
	info := Info{
		ID: id, Problem: ep.Problem, N: ep.Graph.N(), M: ep.Graph.M(), Root: int(ep.Root), Epoch: ep.Seq,
		MaxBits: st.MaxBits, AvgBits: st.AvgBits, TotalBits: st.TotalBits,
	}
	if len(ep.Tiers) > 0 {
		info.TierLevels = tierLevels(ep.Tiers)
	}
	return info
}

// List returns every registered graph's summary, sorted by ID.
func (s *Service) List() []Info {
	var out []Info
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, e := range sh.entries {
			out = append(out, infoOf(id, e.cur.Load()))
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b Info) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// StatsNow returns the lifetime counters.
func (s *Service) StatsNow() Stats {
	var registered uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		registered += uint64(len(sh.entries))
		sh.mu.RUnlock()
	}
	return Stats{
		Queries:    s.met.queries.Value(),
		Decodes:    s.met.decodes.Value(),
		Updates:    s.met.updates.Value(),
		Registered: registered,
	}
}
