package replica

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/boruvka"
	"mstadvice/internal/core"
	"mstadvice/internal/graph"
	"mstadvice/internal/graph/gen"
	"mstadvice/internal/hier"
	"mstadvice/internal/obs"
	"mstadvice/internal/reference"
	"mstadvice/internal/service"
	"mstadvice/internal/store"
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

// makeSnapshot builds a random connected instance with its oracle run.
func makeSnapshot(t testing.TB, n, m int, seed int64) *store.Snapshot {
	t.Helper()
	g := seeded(t, "random", n, uint64(seed), gen.WeightsDistinct)
	adviceBits, err := core.BuildAdvice(g, 0, core.DefaultCap)
	if err != nil {
		t.Fatal(err)
	}
	return &store.Snapshot{Graph: g, Root: 0, Cap: core.DefaultCap, Advice: adviceBits}
}

// makeTieredSnapshot is makeSnapshot with coarse tiers at the given
// levels.
func makeTieredSnapshot(t testing.TB, n, m int, seed int64, levels []int) *store.Snapshot {
	t.Helper()
	snap := makeSnapshot(t, n, m, seed)
	d, err := boruvka.DecomposeOpt(snap.Graph, snap.Root, boruvka.Options{KeepPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	tiers, err := hier.BuildTiers(d, levels, snap.Cap)
	if err != nil {
		t.Fatal(err)
	}
	snap.Tiers = tiers
	return snap
}

// bumpWeight publishes a new epoch by raising one edge weight to a
// fresh distinct value (weight updates never disconnect the graph).
func bumpWeight(t testing.TB, svc *service.Service, id string, e graph.EdgeID, w graph.Weight) {
	t.Helper()
	if _, err := svc.Update(context.Background(), id, graph.Batch{
		Weights: []graph.WeightUpdate{{Edge: e, W: w}},
	}); err != nil {
		t.Fatal(err)
	}
}

// waitApplied polls until the replica has applied n records.
func waitApplied(t testing.TB, r *Replica, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.applied.Load() < int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d/%d records (last error: %v)", r.applied.Load(), n, r.lastErr.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sameAdvice asserts two services serve byte-identical advice at the
// same epoch for every node of id.
func sameAdvice(t testing.TB, a, b *service.Service, id string, n int) {
	t.Helper()
	for u := 0; u < n; u++ {
		wantBits, wantEp, err := a.AdviceBits(id, u)
		if err != nil {
			t.Fatal(err)
		}
		gotBits, gotEp, err := b.AdviceBits(id, u)
		if err != nil {
			t.Fatal(err)
		}
		if gotEp != wantEp || !gotBits.Equal(wantBits) {
			t.Fatalf("%s node %d: replica serves %s@%d, primary %s@%d",
				id, u, gotBits, gotEp, wantBits, wantEp)
		}
	}
}

// epochGraphs records the graph of every epoch a service publishes,
// keyed by graph ID and epoch.
type epochGraphs struct {
	mu     sync.Mutex
	graphs map[string]*graph.Graph
}

func recordEpochs(svc *service.Service) *epochGraphs {
	r := &epochGraphs{graphs: make(map[string]*graph.Graph)}
	svc.OnPublish(func(id string, ep *service.Epoch) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.graphs[fmt.Sprintf("%s@%d", id, ep.Seq)] = ep.Graph
	})
	return r
}

// TestReplicationRoundTrip is the tentpole's core contract: every epoch
// a primary publishes — registrations and updates, across multiple
// graphs — reaches a tailing replica in publication order and is served
// byte-identically at the same epoch number. Each follower epoch's
// graph must equal the primary's once the stream has ended, so a graph
// that kept a view of the connection's reused record buffer fails.
func TestReplicationRoundTrip(t *testing.T) {
	primary := service.New()
	log, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(primary)
	sent := recordEpochs(primary)

	snapA := makeSnapshot(t, 64, 192, 1)
	snapB := makeSnapshot(t, 48, 144, 2)
	if err := primary.Register("a", snapA); err != nil {
		t.Fatal(err)
	}
	if err := primary.Register("b", snapB); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, primary, "a", 0, 1_000_001)
	bumpWeight(t, primary, "b", 3, 1_000_003)
	bumpWeight(t, primary, "a", 5, 1_000_005)

	srv := NewServer(primary, log, ServerOptions{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	follower := service.New()
	got := recordEpochs(follower)
	rep := NewReplica(follower, srv.Addr(), ReplicaOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); rep.Run(ctx) }()
	defer func() { cancel(); <-done }()

	waitApplied(t, rep, 5) // 2 registrations + 3 updates

	sameAdvice(t, primary, follower, "a", snapA.Graph.N())
	sameAdvice(t, primary, follower, "b", snapB.Graph.N())

	// A later epoch published while the replica tails arrives too.
	bumpWeight(t, primary, "a", 7, 1_000_007)
	waitApplied(t, rep, 6)
	sameAdvice(t, primary, follower, "a", snapA.Graph.N())

	got.mu.Lock()
	defer got.mu.Unlock()
	sent.mu.Lock()
	defer sent.mu.Unlock()
	if len(got.graphs) != 6 || len(sent.graphs) != 6 {
		t.Fatalf("follower recorded %d epochs, primary %d, want 6 each", len(got.graphs), len(sent.graphs))
	}
	for key, g := range got.graphs {
		want, ok := sent.graphs[key]
		if !ok {
			t.Fatalf("follower published %s, which the primary never did", key)
		}
		if err := reference.Equal(want, g); err != nil {
			t.Fatalf("follower epoch %s: %v", key, err)
		}
	}
}

// TestPublishRefusesGaps pins the consistent-prefix guard: a record
// that does not extend the local history by exactly one epoch is
// refused, and the refusal does not disturb the entry.
func TestPublishRefusesGaps(t *testing.T) {
	primary := service.New()
	log, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(primary)
	snap := makeSnapshot(t, 32, 96, 3)
	if err := primary.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, primary, "g", 1, 2_000_000)
	bumpWeight(t, primary, "g", 2, 2_000_002)

	follower := service.New()
	apply := func(i int) error {
		rec := log.At(i)
		s, err := store.Decode(rec.Blob)
		if err != nil {
			t.Fatal(err)
		}
		return follower.Publish(rec.ID, s, rec.Seq)
	}
	if err := apply(0); err != nil {
		t.Fatal(err)
	}
	if err := apply(2); err == nil {
		t.Fatal("gap (epoch 0 -> 2) accepted")
	}
	if err := apply(0); err == nil {
		t.Fatal("replayed epoch 0 over epoch 0 accepted")
	}
	if err := apply(1); err != nil {
		t.Fatalf("in-order epoch 1 refused: %v", err)
	}
	if err := apply(2); err != nil {
		t.Fatalf("in-order epoch 2 refused: %v", err)
	}
	sameAdvice(t, primary, follower, "g", snap.Graph.N())
}

// TestReplicaReconnectsAfterPrimaryRestart kills the primary's endpoint
// mid-stream and restarts it on the same log; the replica's capped
// backoff loop must reconnect and resume the tail exactly where it
// stopped, including epochs published while the endpoint was down.
func TestReplicaReconnectsAfterPrimaryRestart(t *testing.T) {
	primary := service.New()
	log, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(primary)
	snap := makeSnapshot(t, 64, 192, 4)
	if err := primary.Register("g", snap); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(primary, log, ServerOptions{})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	follower := service.New()
	rep := NewReplica(follower, addr, ReplicaOptions{ReconnectBase: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); rep.Run(ctx) }()
	defer func() { cancel(); <-done }()
	waitApplied(t, rep, 1)

	// Crash: every connection dies. The service and its log survive —
	// epochs published during the outage must reach the replica later.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, primary, "g", 0, 3_000_000)
	bumpWeight(t, primary, "g", 1, 3_000_001)

	// Restart on the same address (retry: the OS may briefly hold it).
	srv2 := NewServer(primary, log, ServerOptions{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := srv2.Listen(addr); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	waitApplied(t, rep, 3)
	sameAdvice(t, primary, follower, "g", snap.Graph.N())
}

// TestDurableLogRestart pins the restart path: a replica (or primary)
// reopening its durable log replays the exact epoch history, and a torn
// tail — a crash mid-append — is truncated at the damaged record.
func TestDurableLogRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "epochs.log")
	primary := service.New()
	log, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(primary)
	snap := makeSnapshot(t, 48, 144, 5)
	if err := primary.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, primary, "g", 2, 4_000_000)
	if log.Len() != 2 {
		t.Fatalf("log holds %d records, want 2", log.Len())
	}
	second := log.At(1) // re-appended after each torn-tail recovery below
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean restart: both records replay into a fresh service.
	log2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if log2.Len() != 2 {
		t.Fatalf("reopened log holds %d records, want 2", log2.Len())
	}
	restarted := service.New()
	if err := log2.Replay(restarted); err != nil {
		t.Fatal(err)
	}
	sameAdvice(t, primary, restarted, "g", snap.Graph.N())
	if err := log2.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn tail: truncate the file a few bytes into the second record;
	// recovery keeps record one and the log accepts appends again.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var firstLen int
	{
		l3, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		rec := l3.At(0)
		firstLen = len(store.AppendRecord(nil, rec.appendPayload(nil)))
		l3.Close()
	}
	for _, cut := range []int{firstLen + 1, firstLen + 10, len(data) - 1} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		torn, err := OpenLog(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if torn.Len() != 1 {
			t.Fatalf("cut %d: recovered %d records, want 1", cut, torn.Len())
		}
		fresh := service.New()
		if err := torn.Replay(fresh); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if ep, err := fresh.Epoch("g"); err != nil || ep.Seq != 0 {
			t.Fatalf("cut %d: recovered epoch %v (%v), want 0", cut, ep, err)
		}
		// The truncated tail is gone from disk too: appending after
		// recovery yields a clean two-record log.
		if err := torn.Append(second); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		torn.Close()
		again, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if again.Len() != 2 {
			t.Fatalf("cut %d: log after recovery+append holds %d records, want 2", cut, again.Len())
		}
		again.Close()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// appendPayload is the reference log/wire payload layout — id, seq,
// snapshot blob — that stored and streamed frames are pinned to.
func (r *EpochRecord) appendPayload(buf []byte) []byte {
	buf = store.AppendString(buf, r.ID)
	buf = binary.AppendUvarint(buf, r.Seq)
	return append(buf, r.Blob...)
}

// openLogs returns an in-memory and a durable log, by name, and the
// durable log's path.
func openLogs(t *testing.T) (map[string]*Log, string) {
	t.Helper()
	durable := filepath.Join(t.TempDir(), "epochs.log")
	logs := map[string]*Log{}
	for name, path := range map[string]string{"memory": "", "durable": durable} {
		l, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		logs[name] = l
	}
	return logs, durable
}

// TestClosedLogRefusesAppendAndAt pins that a closed durable log fails
// loudly: an append after Close must not land only in memory and report
// success, and a read must not serve what the log no longer backs.
func TestClosedLogRefusesAppendAndAt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.log")
	log, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := EpochRecord{ID: "g", Seq: 0, Blob: []byte("epoch zero")}
	if err := log.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.Append(EpochRecord{ID: "g", Seq: 1, Blob: []byte("epoch one")}); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Append after Close: %v, want os.ErrClosed", err)
	}
	if log.Len() != 1 {
		t.Fatalf("closed log holds %d records, want 1", log.Len())
	}
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, os.ErrClosed) {
				t.Fatalf("At after Close raised %v, want os.ErrClosed", err)
			}
		}()
		log.At(0)
	}()
	if err := log.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	again, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != 1 {
		t.Fatalf("reopened log holds %d records, want 1", again.Len())
	}
}

// TestLogDoesNotAliasBlobs pins that the log owns its bytes: a caller
// mutating a blob after Append, or mutating what At returned, changes
// nothing the log serves.
func TestLogDoesNotAliasBlobs(t *testing.T) {
	logs, _ := openLogs(t)
	for name, log := range logs {
		blob := []byte("epoch zero snapshot")
		if err := log.Append(EpochRecord{ID: "g", Seq: 0, Blob: blob}); err != nil {
			t.Fatal(err)
		}
		copy(blob, "XXXX")
		got := log.At(0)
		if string(got.Blob) != "epoch zero snapshot" {
			t.Fatalf("%s: At(0) = %q after the caller mutated its blob", name, got.Blob)
		}
		copy(got.Blob, "YYYY")
		if again := log.At(0); string(again.Blob) != "epoch zero snapshot" {
			t.Fatalf("%s: At(0) = %q after mutating an earlier At result", name, again.Blob)
		}
	}
}

// TestTailFramesMatchRecordCodec pins the file and wire formats: every
// frame the tail stream ships, and the durable file itself, are
// byte-identical to the store record codec applied to the record's
// payload, for in-memory and durable logs alike.
func TestTailFramesMatchRecordCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var recs []EpochRecord
	for i, size := range []int{0, 1, 127, 300, 70_000} { // payload lengths cross varint widths
		blob := make([]byte, size)
		rng.Read(blob)
		recs = append(recs, EpochRecord{ID: string(rune('a' + i%2)), Seq: uint64(i / 2), Blob: blob})
	}
	var file []byte
	for _, rec := range recs {
		file = store.AppendRecord(file, rec.appendPayload(nil))
	}
	logs, durablePath := openLogs(t)
	for name, log := range logs {
		t.Run(name, func(t *testing.T) {
			for _, rec := range recs {
				if err := log.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			srv := NewServer(service.New(), log, ServerOptions{})
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(store.AppendRecord(nil, tailRequest(0))); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			got := make([]byte, len(file))
			if _, err := io.ReadFull(conn, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, file) {
				t.Fatal("tail stream differs from the record codec's frames")
			}
		})
	}
	got, err := os.ReadFile(durablePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, file) {
		t.Fatal("durable log file differs from the concatenated record codec frames")
	}
}

// TestLogReadsCommittedFile pins the file format against a committed
// log: testdata/epochs.log (two graphs, five epochs) was written by the
// earlier log implementation that kept every record in memory, and
// testdata/epochs-appended.log is the same file after that
// implementation reopened it and appended one record. The current log
// must reopen and replay the first, and appending the same record must
// produce the second byte for byte.
func TestLogReadsCommittedFile(t *testing.T) {
	data, err := os.ReadFile("testdata/epochs.log")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/epochs-appended.log")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "epochs.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if log.Len() != 5 {
		t.Fatalf("committed log reopens with %d records, want 5", log.Len())
	}
	var frames []byte
	last := map[string]EpochRecord{}
	for i := 0; i < log.Len(); i++ {
		rec := log.At(i)
		frames = store.AppendRecord(frames, rec.appendPayload(nil))
		last[rec.ID] = rec
	}
	if !bytes.Equal(frames, data) {
		t.Fatal("records read back do not re-frame to the committed file")
	}
	svc := service.New()
	if err := log.Replay(svc); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		ep, err := svc.Epoch(id)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := store.Decode(last[id].Blob)
		if err != nil {
			t.Fatal(err)
		}
		if ep.Seq != last[id].Seq || !sameBits(ep.Advice, snap.Advice) {
			t.Fatalf("%s: replayed epoch %d, want the last record's epoch %d and advice", id, ep.Seq, last[id].Seq)
		}
	}
	tail := log.At(log.Len() - 1)
	if err := log.Append(EpochRecord{ID: tail.ID, Seq: tail.Seq + 1, Blob: tail.Blob}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("appending to the committed log produced bytes other than the committed appended file")
	}
}

func sameBits(a, b []*bitstring.BitString) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// FuzzOpenLog feeds arbitrary file bytes to OpenLog, the log's
// untrusted boundary: recovery never panics, keeps a prefix of the
// file, is stable under a reopen, and leaves a log that accepts and
// keeps one more record.
func FuzzOpenLog(f *testing.F) {
	committed, err := os.ReadFile("testdata/epochs.log")
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(committed)
	f.Add(committed[:len(committed)-3])
	f.Add(append(store.AppendRecord(nil, []byte{1, 'g', 0, 'x'}), 0x80, 0x80))
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 0x00, 0x00}) // non-minimal zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})       // length far past the file
	appended := EpochRecord{ID: "fuzz", Seq: 1, Blob: []byte("appended after recovery")}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "epochs.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		n := log.Len()
		recs := make([]EpochRecord, n)
		for i := range recs {
			recs[i] = log.At(i)
		}
		log.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("recovery kept %d bytes that are not a prefix of the %d-byte input", len(kept), len(data))
		}

		again, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if again.Len() != n {
			t.Fatalf("reopen recovers %d records, first open %d", again.Len(), n)
		}
		for i, want := range recs {
			if got := again.At(i); got.ID != want.ID || got.Seq != want.Seq || !bytes.Equal(got.Blob, want.Blob) {
				t.Fatalf("record %d: reopen reads %s@%d (%d bytes), first open %s@%d (%d bytes)",
					i, got.ID, got.Seq, len(got.Blob), want.ID, want.Seq, len(want.Blob))
			}
		}
		if err := again.Append(appended); err != nil {
			t.Fatal(err)
		}
		again.Close()

		third, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		defer third.Close()
		if third.Len() != n+1 {
			t.Fatalf("after recovery and one append the log reopens with %d records, want %d", third.Len(), n+1)
		}
		if got := third.At(n); got.ID != appended.ID || got.Seq != appended.Seq || !bytes.Equal(got.Blob, appended.Blob) {
			t.Fatalf("appended record reads back as %s@%d %q", got.ID, got.Seq, got.Blob)
		}
	})
}

// TestClientFailover pins the read path under a dying endpoint: with a
// primary and a caught-up replica, killing one endpoint mid-run must
// not produce a single wrong or stale answer.
func TestClientFailover(t *testing.T) {
	primary := service.New()
	log, err := OpenLog("")
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(primary)
	snap := makeSnapshot(t, 64, 192, 6)
	if err := primary.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, primary, "g", 0, 5_000_000)

	srvP := NewServer(primary, log, ServerOptions{})
	if err := srvP.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvP.Close()

	follower := service.New()
	rep := NewReplica(follower, srvP.Addr(), ReplicaOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); rep.Run(ctx) }()
	defer func() { cancel(); <-done }()
	waitApplied(t, rep, 2)

	srvR := NewServer(follower, nil, ServerOptions{})
	if err := srvR.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvR.Close()

	cli, err := NewClient([]string{srvP.Addr(), srvR.Addr()}, ClientOptions{
		Timeout: 2 * time.Second, BackoffBase: time.Millisecond, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	check := func(u int) {
		t.Helper()
		ans, err := cli.Advice(context.Background(), "g", u)
		if err != nil {
			t.Fatal(err)
		}
		want, wantEp, err := primary.AdviceBits("g", u)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Epoch != wantEp || !ans.Bits.Equal(want) {
			t.Fatalf("node %d: client got %s@%d, primary serves %s@%d",
				u, ans.Bits, ans.Epoch, want, wantEp)
		}
	}
	n := snap.Graph.N()
	for u := 0; u < n/2; u++ {
		check(u)
	}
	// Kill the replica endpoint: reads fail over to the primary.
	if err := srvR.Close(); err != nil {
		t.Fatal(err)
	}
	for u := n / 2; u < n; u++ {
		check(u)
	}
	// Unknown graphs fail over too, then surface as not-found.
	if _, err := cli.Advice(context.Background(), "nope", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown graph: %v, want ErrNotFound", err)
	}
}

// TestClientRejectsStaleEpochs pins monotone reads: once the client has
// seen epoch e for a graph, a lagging endpoint's older answer is
// retried elsewhere, never returned.
func TestClientRejectsStaleEpochs(t *testing.T) {
	snap := makeSnapshot(t, 48, 144, 7)

	fresh := service.New()
	logF, _ := OpenLog("")
	logF.Attach(fresh)
	if err := fresh.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	bumpWeight(t, fresh, "g", 1, 6_000_000)

	// The lagging endpoint holds only epoch 0 (the registration record).
	lagging := service.New()
	rec := logF.At(0)
	s0, err := store.Decode(rec.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := lagging.Publish(rec.ID, s0, rec.Seq); err != nil {
		t.Fatal(err)
	}

	srvFresh := NewServer(fresh, logF, ServerOptions{})
	if err := srvFresh.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvFresh.Close()
	srvLag := NewServer(lagging, nil, ServerOptions{})
	if err := srvLag.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srvLag.Close()

	// Round-robin starts at the fresh endpoint, so the very first answer
	// pins epoch 1; every later read must stay there even though half
	// the attempts land on the lagging endpoint first.
	cli, err := NewClient([]string{srvFresh.Addr(), srvLag.Addr()}, ClientOptions{
		BackoffBase: time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for u := 0; u < snap.Graph.N(); u++ {
		ans, err := cli.Advice(context.Background(), "g", u)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Epoch != 1 {
			t.Fatalf("node %d: answer at epoch %d, want the pinned epoch 1", u, ans.Epoch)
		}
	}
}

// TestClientDegradedFallback pins graceful degradation: when only a
// memory-pressured tier-only endpoint answers, Advice surfaces
// ErrDegraded and AdviceDegraded falls back to the coarse tier snapshot
// the endpoint still serves.
func TestClientDegradedFallback(t *testing.T) {
	snap := makeTieredSnapshot(t, 200, 600, 8, []int{1, 2})
	svc := service.New()
	if err := svc.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc, nil, ServerOptions{TierOnly: true})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rec := obs.NewRecorder(16)
	cli, err := NewClient([]string{srv.Addr()}, ClientOptions{BackoffBase: time.Millisecond, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if _, err := cli.Advice(context.Background(), "g", 0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Advice on a tier-only endpoint: %v, want ErrDegraded", err)
	}
	ans, err := cli.AdviceDegraded(context.Background(), "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Degraded || ans.Tier == nil {
		t.Fatalf("degraded answer missing tier snapshot: %+v", ans)
	}
	// The degraded answer carries the terminal per-endpoint error list:
	// which endpoint refused full advice, and why.
	if len(ans.Diagnosis) != 1 || ans.Diagnosis[0].Endpoint != srv.Addr() {
		t.Fatalf("degraded diagnosis = %+v, want the one tier-only endpoint", ans.Diagnosis)
	}
	if !strings.Contains(ans.Diagnosis[0].Err, "tier") {
		t.Errorf("diagnosis error %q does not name the tier-only refusal", ans.Diagnosis[0].Err)
	}
	// And the flight recorder saw the fallback.
	degradedEvents := 0
	for _, ev := range rec.Events() {
		if ev.Kind == "degraded" {
			degradedEvents++
		}
	}
	if degradedEvents == 0 {
		t.Error("flight recorder captured no degraded event")
	}
	// Per-endpoint outcome counters classified the refusals.
	if v, ok := cli.Metrics().CounterValue("replica_client_attempts_total", "endpoint", srv.Addr(), "outcome", "degraded"); !ok || v == 0 {
		t.Errorf("replica_client_attempts_total{outcome=degraded} = %d, %v; want > 0", v, ok)
	}
	ep, err := svc.Epoch("g")
	if err != nil {
		t.Fatal(err)
	}
	want := ep.Tiers[len(ep.Tiers)-1]
	if ans.TierLevel != want.Level || ans.Tier.Graph.N() != want.Graph.N() {
		t.Fatalf("fallback tier level %d (n=%d), service's coarsest is level %d (n=%d)",
			ans.TierLevel, ans.Tier.Graph.N(), want.Level, want.Graph.N())
	}
	// The coarse snapshot is self-contained: its advice matches what the
	// service holds for the tier, bit for bit.
	for i, b := range want.Advice {
		if !ans.Tier.Advice[i].Equal(b) {
			t.Fatalf("coarse node %d: fallback advice %s, service %s", i, ans.Tier.Advice[i], b)
		}
	}
}

// serve starts a wire endpoint for svc (and log, which may be nil) and
// closes it when the test ends.
func serve(t *testing.T, svc *service.Service, log *Log, opts ServerOptions) *Server {
	t.Helper()
	srv := NewServer(svc, log, opts)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestClientCountsReadTimeouts pins the timeout outcome: an endpoint
// that accepts and never answers costs one attempt classified as a
// timeout, and the error is the deadline, not a torn record.
func TestClientCountsReadTimeouts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, conn); conn.Close() }()
		}
	}()
	cli, err := NewClient([]string{ln.Addr().String()}, ClientOptions{Timeout: 50 * time.Millisecond, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Advice(context.Background(), "g", 0)
	if err == nil || errors.Is(err, store.ErrTornRecord) {
		t.Fatalf("read from a silent endpoint: %v, want a timeout that is not a torn record", err)
	}
	for _, outcome := range clientOutcomes {
		want := uint64(0)
		if outcome == "timeout" {
			want = 1
		}
		if v, _ := cli.Metrics().CounterValue("replica_client_attempts_total", "endpoint", ln.Addr().String(), "outcome", outcome); v != want {
			t.Errorf("replica_client_attempts_total{outcome=%q} = %d, want %d", outcome, v, want)
		}
	}
}

// TestServerRefusesOversizedRequest pins the request bound: a 5-byte
// header declaring a 1 GiB request makes the server close the
// connection without allocating the payload.
func TestServerRefusesOversizedRequest(t *testing.T) {
	srv := serve(t, service.New(), nil, ServerOptions{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(binary.AppendUvarint(nil, 1<<30)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if n > 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server answered a 1 GiB request header with %d bytes, %v; want the connection closed", n, err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("refusing the header allocated %d bytes", grew)
	}
}

// TestWireTierReadCountsOneQuery pins that a wire tier read is one
// service query, as an HTTP tier read is.
func TestWireTierReadCountsOneQuery(t *testing.T) {
	snap := makeTieredSnapshot(t, 200, 600, 8, []int{1, 2})
	svc := service.New()
	if err := svc.Register("g", snap); err != nil {
		t.Fatal(err)
	}
	srv := serve(t, svc, nil, ServerOptions{})
	cli, err := NewClient([]string{srv.Addr()}, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	before := svc.StatsNow().Queries
	ans, err := cli.Tier(context.Background(), "g", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.StatsNow().Queries - before; got != 1 {
		t.Fatalf("a wire tier read moved service_queries_total by %d, want 1", got)
	}
	want, err := svc.TierSnapshot("g", 1)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Level != want.Level || ans.Epoch != want.Epoch || ans.Snapshot.Graph.N() != want.N {
		t.Fatalf("wire tier %d@%d (n=%d), service serves %d@%d (n=%d)",
			ans.Level, ans.Epoch, ans.Snapshot.Graph.N(), want.Level, want.Epoch, want.N)
	}
}

// TestLogKeepsIDsAtTheBound pins the one graph-ID bound: an ID of
// exactly store.MaxString bytes is registered, logged and replayed, one
// byte longer is refused at registration, and the records around them
// survive a reopen.
func TestLogKeepsIDsAtTheBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.log")
	primary := service.New()
	log, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	log.Attach(primary)
	atBound := strings.Repeat("x", store.MaxString)
	for _, id := range []string{"a", atBound, atBound + "x", "b"} {
		err := primary.Register(id, makeSnapshot(t, 16, 40, 1))
		if over := len(id) > store.MaxString; over != (err != nil) {
			t.Fatalf("registering a %d-byte ID: %v", len(id), err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != 3 {
		t.Fatalf("reopened log holds %d records, want 3", again.Len())
	}
	restarted := service.New()
	if err := again.Replay(restarted); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", atBound, "b"} {
		sameAdvice(t, primary, restarted, id, 16)
	}
}

// TestClientLongGraphIDs pins the ID bound on the read path: an unknown
// ID at the bound is not found — the server's error text quotes the ID
// and must stay readable — and an ID over the bound is a bad request,
// refused without retries.
func TestClientLongGraphIDs(t *testing.T) {
	srv := serve(t, service.New(), nil, ServerOptions{})
	cli, err := NewClient([]string{srv.Addr()}, ClientOptions{BackoffBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Advice(context.Background(), strings.Repeat("x", store.MaxString), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown %d-byte ID: %v, want ErrNotFound", store.MaxString, err)
	}
	_, err = cli.Advice(context.Background(), strings.Repeat("x", 2*store.MaxString), 0)
	var we *wireErr
	if !errors.As(err, &we) || we.code != codeBad {
		t.Fatalf("%d-byte ID: %v, want a bad-request error", 2*store.MaxString, err)
	}
	if v, _ := cli.Metrics().CounterValue("replica_client_attempts_total", "endpoint", srv.Addr(), "outcome", "bad"); v != 1 {
		t.Fatalf("over-bound ID took %d bad attempts, want 1", v)
	}
}

// FuzzServeRequest feeds arbitrary request payloads to the server's
// request handling over a service holding one small tiered graph: it
// never panics, every reply starts with a status byte, and every error
// reply reads back with the client's reader — a code, then a message
// within the string bound.
func FuzzServeRequest(f *testing.F) {
	svc := service.New()
	if err := svc.Register("g", makeTieredSnapshot(f, 32, 80, 3, []int{1})); err != nil {
		f.Fatal(err)
	}
	srv := NewServer(svc, nil, ServerOptions{})
	advice := binary.AppendUvarint(store.AppendString([]byte{opAdvice}, "g"), 5)
	for _, req := range [][]byte{
		advice,
		binary.AppendUvarint(store.AppendString([]byte{opTier}, "g"), 1),
		store.AppendString([]byte{opInfo}, "g"),
		binary.AppendUvarint(store.AppendString([]byte{opAdvice}, strings.Repeat("x", store.MaxString)), 0),
		{0x7f},
	} {
		f.Add(req)
		f.Add(req[:len(req)-1]) // truncated
	}
	f.Add(append([]byte{opAdvice, 0x81, 0x00}, 'g'))  // non-minimal ID length
	f.Add(append(advice[:len(advice)-1], 0x85, 0x00)) // non-minimal node
	f.Fuzz(func(t *testing.T, req []byte) {
		if len(req) == 0 || req[0] == opTail {
			return // serveConn closes on an empty frame and streams a tail request
		}
		reply := srv.answer(req)
		switch {
		case len(reply) == 0:
			t.Fatal("empty reply")
		case reply[0] == rErr:
			if _, err := parseErr(reply[1:]); err != nil {
				t.Fatalf("error reply unreadable by the client: %v", err)
			}
		case reply[0] != rOK:
			t.Fatalf("reply status %d", reply[0])
		}
	})
}

// epochOf is the epoch a service publishes for snap as seq.
func epochOf(snap *store.Snapshot, seq uint64) *service.Epoch {
	return &service.Epoch{
		Seq: seq, Problem: "mst", Cap: snap.Cap,
		Graph: snap.Graph, Root: snap.Root, Advice: snap.Advice, Tiers: snap.Tiers,
	}
}

// logBytes returns what a log holds: its file, or an in-memory log's
// buffer.
func logBytes(t *testing.T, l *Log, path string) []byte {
	t.Helper()
	if path == "" {
		mem := l.data.(*memFrames)
		mem.mu.Lock()
		defer mem.mu.Unlock()
		return slices.Clone(mem.b)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAppendEpochMatchesAppend pins that streaming an epoch's encoding
// into the log keeps the log's bytes: for flat, tiered and
// ragged-advice epochs, in-memory and durable logs written by
// AppendEpoch are byte-identical to logs written by Append of
// store.Encode's blob, and to the record codec's frames of the same
// payloads, and read back the same records. One AppendEpoch of a seeded
// 10⁵ epoch allocates under 1 MiB, where the whole blob is ≈3.5 MiB. An
// epoch that fails to encode (a negative weight on its last edge, after
// more than one flush has streamed) leaves a log that reopens to the
// same records and takes the next append.
func TestAppendEpochMatchesAppend(t *testing.T) {
	flat := makeSnapshot(t, 300, 900, 21)
	tiered := makeTieredSnapshot(t, 300, 900, 22, []int{1, 2})
	ragged := makeSnapshot(t, 40, 120, 23)
	rng := rand.New(rand.NewSource(23))
	for u := range ragged.Advice {
		s := bitstring.New(0)
		for range rng.Intn(150) {
			s.AppendBit(rng.Intn(2) == 1)
		}
		ragged.Advice[u] = s
	}
	type epoch struct {
		id string
		ep *service.Epoch
	}
	epochs := []epoch{
		{"flat", epochOf(flat, 0)}, {"tiered", epochOf(tiered, 0)},
		{"ragged", epochOf(ragged, 7)}, {"flat", epochOf(flat, 1)},
	}
	blobOf := func(ep *service.Epoch) []byte {
		t.Helper()
		blob, err := store.Encode(&store.Snapshot{
			Problem: ep.Problem, Graph: ep.Graph, Root: ep.Root, Cap: ep.Cap, Advice: ep.Advice, Tiers: ep.Tiers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	var frames []byte
	var blobs [][]byte
	for _, e := range epochs {
		blob := blobOf(e.ep)
		blobs = append(blobs, blob)
		rec := EpochRecord{ID: e.id, Seq: e.ep.Seq, Blob: blob}
		frames = store.AppendRecord(frames, rec.appendPayload(nil))
	}
	dir := t.TempDir()
	for _, durable := range []bool{false, true} {
		for _, streamed := range []bool{true, false} {
			path := ""
			if durable {
				path = filepath.Join(dir, fmt.Sprintf("streamed-%v.log", streamed))
			}
			name := fmt.Sprintf("durable=%v streamed=%v", durable, streamed)
			log, err := OpenLog(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range epochs {
				if streamed {
					err = log.AppendEpoch(e.id, e.ep)
				} else {
					err = log.Append(EpochRecord{ID: e.id, Seq: e.ep.Seq, Blob: blobs[i]})
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			if !bytes.Equal(logBytes(t, log, path), frames) {
				t.Fatalf("%s: the log differs from the record codec's frames", name)
			}
			for i, e := range epochs {
				if rec := log.At(i); rec.ID != e.id || rec.Seq != e.ep.Seq || !bytes.Equal(rec.Blob, blobs[i]) {
					t.Fatalf("%s: record %d reads back as %s@%d", name, i, rec.ID, rec.Seq)
				}
			}
			log.Close()
		}
	}

	big := epochOf(makeSnapshot(t, 100_000, 300_000, 24), 0)
	log, err := OpenLog(filepath.Join(dir, "big.log"))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := log.AppendEpoch("big", big); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	log.Close()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one AppendEpoch at n = 10⁵ allocated %.1f KiB", float64(got)/(1<<10))
	if got >= 1<<20 {
		t.Fatalf("one AppendEpoch at n = 10⁵ allocated %d bytes, want under 1 MiB", got)
	}

	mid := makeSnapshot(t, 5_000, 15_000, 25)
	edges := slices.Clone(mid.Graph.Edges())
	edges[len(edges)-1].W = -1
	negative, err := graph.FromEdgeList(mid.Graph.N(), slices.Clone(mid.Graph.IDs()), edges, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := epochOf(&store.Snapshot{Graph: negative, Cap: mid.Cap, Advice: mid.Advice}, 1)
	want := store.AppendRecord(nil, (&EpochRecord{ID: "flat", Seq: 0, Blob: blobs[0]}).appendPayload(nil))
	want = store.AppendRecord(want, (&EpochRecord{ID: "flat", Seq: 1, Blob: blobs[3]}).appendPayload(nil))
	for _, path := range []string{"", filepath.Join(dir, "failed.log"), filepath.Join(dir, "failed-reopened.log")} {
		log, err := OpenLog(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.AppendEpoch("flat", epochs[0].ep); err != nil {
			t.Fatal(err)
		}
		if err := log.AppendEpoch("bad", bad); err == nil || !strings.Contains(err.Error(), "negative weight") {
			t.Fatalf("%q: appending an epoch with a negative weight: %v", path, err)
		}
		if log.Len() != 1 {
			t.Fatalf("%q: a failed encode left %d records", path, log.Len())
		}
		if strings.HasSuffix(path, "reopened.log") {
			log.Close()
			if log, err = OpenLog(path); err != nil {
				t.Fatal(err)
			}
			if log.Len() != 1 || !bytes.Equal(log.At(0).Blob, blobs[0]) {
				t.Fatalf("%q: reopened after a failed encode to %d records", path, log.Len())
			}
		}
		if err := log.AppendEpoch("flat", epochs[3].ep); err != nil {
			t.Fatalf("%q: the append after a failed encode: %v", path, err)
		}
		if path != "" {
			log.Close()
			if log, err = OpenLog(path); err != nil {
				t.Fatal(err)
			}
		}
		if log.Len() != 2 || !bytes.Equal(logBytes(t, log, path), want) {
			t.Fatalf("%q: after a failed encode and one more append the log holds %d records and differs from their frames", path, log.Len())
		}
		log.Close()
	}
}
