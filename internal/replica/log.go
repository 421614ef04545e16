package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"mstadvice/internal/service"
	"mstadvice/internal/store"
)

// EpochRecord is one entry of the epoch log: a graph's epoch as a fully
// self-contained encoded snapshot. Blob is store.Encode output — graph,
// root, problem, cap, advice, tiers — so a replica (or a restarted
// primary) rebuilds the exact published epoch without an oracle run.
type EpochRecord struct {
	ID   string
	Seq  uint64
	Blob []byte
}

// parseRecord reads a record payload: the graph ID, the epoch and the
// blob, which aliases payload.
func parseRecord(payload []byte) (EpochRecord, error) {
	c := store.NewCursor(payload)
	id, err := c.String("record graph ID", store.MaxString)
	if err != nil {
		return EpochRecord{}, err
	}
	seq, err := c.Uvarint("record epoch")
	if err != nil {
		return EpochRecord{}, err
	}
	return EpochRecord{ID: id, Seq: seq, Blob: c.Rest()}, nil
}

// Log is the append-only epoch history. Every record is framed with the
// store record codec (varint length + CRC32 per record, DESIGN.md
// §2.10) and the frames live in the log file — or, for a log opened
// without a path, in one in-memory buffer behind the same read/write
// seam. Memory holds only an index: each record's graph ID, epoch, and
// the offset and length of its frame. A durable log fsyncs every record
// before it becomes visible. Opening an existing file indexes its
// records and truncates a torn tail (a crash mid-append) at the first
// damaged record, so the log's readable prefix is always a consistent
// prefix of the publication history.
type Log struct {
	mu     sync.Mutex
	data   frameData // the log file, or memFrames for an in-memory log
	size   int64     // end of the last complete frame
	index  []logEntry
	notify chan struct{} // closed and replaced on every append
	met    *logMetrics
}

// logEntry locates one record's frame in the log's data.
type logEntry struct {
	id    string
	seq   uint64
	off   int64
	frame int64 // the frame's length
}

// frameData is the log's byte store: an *os.File for a durable log,
// memFrames for an in-memory one, closedFrames once a durable log is
// closed. Only a durable store has a Sync method.
type frameData interface {
	io.ReaderAt
	io.WriterAt
}

// memFrames holds an in-memory log's frames. Writes only ever extend
// the buffer; its own lock lets readers copy frames without the log's.
type memFrames struct {
	mu sync.Mutex
	b  []byte
}

func (m *memFrames) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(m.b)) {
		return 0, io.EOF
	}
	n := copy(p, m.b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memFrames) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.b = append(m.b[:off], p...)
	return len(p), nil
}

// closedFrames stands in for a closed durable log's file.
type closedFrames struct{}

func (closedFrames) ReadAt([]byte, int64) (int, error)  { return 0, os.ErrClosed }
func (closedFrames) WriteAt([]byte, int64) (int, error) { return 0, os.ErrClosed }

// OpenLog opens (or creates) the durable epoch log at path; an empty
// path yields a purely in-memory log.
func OpenLog(path string) (*Log, error) {
	l := &Log{notify: make(chan struct{}), met: newLogMetrics()}
	if path == "" {
		l.data = &memFrames{}
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := l.scan(bufio.NewReader(io.NewSectionReader(f, 0, st.Size())), st.Size()); err != nil {
		f.Close()
		return nil, err
	}
	// Torn tail: keep the clean prefix, drop the damaged rest.
	if err := f.Truncate(l.size); err != nil {
		f.Close()
		return nil, err
	}
	l.data = f
	l.met.records.Set(int64(len(l.index)))
	return l, nil
}

// scan indexes the records of a log file of size bytes, read as a
// stream through one reused buffer, checking every CRC. It stops at the
// first record that is torn, corrupt or runs past the end of the file,
// leaving l.size at the end of the clean prefix; only a read failure
// other than the end of the file is an error.
func (l *Log) scan(br *bufio.Reader, size int64) error {
	var payload []byte
	for {
		var err error
		// Bound the payload by the bytes left, so a corrupt header cannot
		// request an allocation the file cannot back.
		payload, err = store.ReadRecord(br, int(size-l.size), payload)
		if err == io.EOF || errors.Is(err, store.ErrTornRecord) {
			return nil
		}
		if err != nil {
			return err
		}
		rec, err := parseRecord(payload)
		if err != nil {
			return nil
		}
		frame := store.RecordLen(len(payload))
		l.index = append(l.index, logEntry{id: rec.ID, seq: rec.Seq, off: l.size, frame: frame})
		l.size += frame
	}
}

// Append adds one record: its frame — the uvarint payload length, the
// id/seq prefix, the caller's blob and the payload's CRC32 — is written
// straight from those pieces, and hits the file (fsynced) before the
// record becomes visible to readers and tailing subscribers, so a
// replica can never observe an epoch the primary could lose in a crash.
// The log keeps no reference to rec.Blob. Append on a closed durable log
// returns os.ErrClosed.
func (l *Log) Append(rec EpochRecord) error {
	return l.append(rec.ID, rec.Seq, func(w io.Writer, head []byte) (int64, error) {
		return store.WriteRecord(w, head, rec.Blob)
	})
}

// AppendEpoch encodes a published epoch into a record and appends it —
// the service.OnPublish hook body of a primary (see Attach). The encoding
// streams into the log (store.WriteSnapshotRecord) instead of being held
// whole, and the frame is the one Append writes for store.Encode's blob;
// the append latency therefore includes the encode. An epoch that fails
// to encode leaves the log as a failed Append does.
func (l *Log) AppendEpoch(id string, ep *service.Epoch) error {
	snap := &store.Snapshot{
		Problem: ep.Problem,
		Graph:   ep.Graph,
		Root:    ep.Root,
		Cap:     ep.Cap,
		Advice:  ep.Advice,
		Tiers:   ep.Tiers,
	}
	err := l.append(id, ep.Seq, func(w io.Writer, head []byte) (int64, error) {
		return store.WriteSnapshotRecord(w, head, snap)
	})
	if err != nil {
		return fmt.Errorf("replica: appending epoch %d of %q: %w", ep.Seq, id, err)
	}
	return nil
}

// append is the bookkeeping of Append and AppendEpoch. write frames a
// record whose payload starts with head, the id/seq prefix, at the end
// of the clean prefix and returns the frame's length; a durable log then
// fsyncs, and the record is indexed and announced. Because the frame is
// written at that explicit offset, a failed write moves neither the size
// nor the index: what it left past the clean prefix is overwritten by
// the next append, and any rest is a torn tail the next OpenLog cuts.
func (l *Log) append(id string, seq uint64, write func(w io.Writer, head []byte) (int64, error)) error {
	t0 := time.Now()
	head := binary.AppendUvarint(store.AppendString(nil, id), seq)

	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := write(io.NewOffsetWriter(l.data, l.size), head)
	if err != nil {
		return err
	}
	if s, ok := l.data.(interface{ Sync() error }); ok {
		tSync := time.Now()
		if err := s.Sync(); err != nil {
			return err
		}
		l.met.fsyncLatency.ObserveSince(tSync)
	}
	l.index = append(l.index, logEntry{id: id, seq: seq, off: l.size, frame: n})
	l.size += n
	close(l.notify)
	l.notify = make(chan struct{})
	l.met.records.Set(int64(len(l.index)))
	l.met.bytes.Add(uint64(n))
	l.met.appendLatency.ObserveSince(t0)
	return nil
}

// Len returns the number of records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.index)
}

// frame reads record i's stored frame — byte-identical to its wire
// frame — into buf's storage, growing it as needed, and returns it with
// its payload's length.
func (l *Log) frame(i int, buf []byte) ([]byte, int, error) {
	l.mu.Lock()
	index, data := l.index, l.data
	l.mu.Unlock()
	if i < 0 || i >= len(index) {
		return nil, 0, fmt.Errorf("replica: log record %d out of range [0,%d)", i, len(index))
	}
	e := index[i]
	buf = slices.Grow(buf[:0], int(e.frame))[:e.frame]
	if _, err := data.ReadAt(buf, e.off); err != nil {
		return nil, 0, err
	}
	_, header := binary.Uvarint(buf) // checked when the record was indexed
	return buf, len(buf) - header - 4, nil
}

// record reads record i back from the log into a fresh buffer; its
// Blob aliases that buffer.
func (l *Log) record(i int) (EpochRecord, error) {
	frame, _, err := l.frame(i, nil)
	if err != nil {
		return EpochRecord{}, err
	}
	payload, err := store.RecordPayload(frame)
	if err != nil {
		return EpochRecord{}, err
	}
	return parseRecord(payload)
}

// At returns record i as a fresh copy read from the log. It panics if
// the read fails — with os.ErrClosed once a durable log is closed.
func (l *Log) At(i int) EpochRecord {
	rec, err := l.record(i)
	if err != nil {
		panic(fmt.Errorf("replica: reading log record %d: %w", i, err))
	}
	return rec
}

// WaitFor blocks until record i exists (true) or stop closes (false).
func (l *Log) WaitFor(i int, stop <-chan struct{}) bool {
	for {
		l.mu.Lock()
		if i < len(l.index) {
			l.mu.Unlock()
			return true
		}
		ch := l.notify
		l.mu.Unlock()
		select {
		case <-ch:
		case <-stop:
			return false
		}
	}
}

// Replay restores the service to the state the log ends at — the
// restart path of a daemon with a durable -epoch-log: the service comes
// back at exactly the epoch (number and content) it had published
// before the crash. Every record is a complete snapshot, not a diff, so
// only the last record of each graph is read, decoded and published;
// recovery time is bounded by the number of graphs, not the length of
// the epoch history.
func (l *Log) Replay(svc *service.Service) error {
	l.mu.Lock()
	index := l.index
	l.mu.Unlock()
	last := make(map[string]int, 8)
	for i := range index {
		last[index[i].id] = i
	}
	for i, e := range index {
		if last[e.id] != i {
			continue
		}
		rec, err := l.record(i)
		if err != nil {
			return fmt.Errorf("replica: log record %d (%s@%d): %w", i, e.id, e.seq, err)
		}
		snap, err := store.Decode(rec.Blob)
		if err != nil {
			return fmt.Errorf("replica: log record %d (%s@%d): %w", i, e.id, e.seq, err)
		}
		if err := svc.Publish(rec.ID, snap, rec.Seq); err != nil {
			return fmt.Errorf("replica: log record %d: %w", i, err)
		}
	}
	return nil
}

// Attach subscribes the log to a service's epoch publications: every
// epoch the service publishes from now on is appended (and fsynced)
// before the publishing call returns. Attach before registering graphs,
// or the log misses their epoch 0.
func (l *Log) Attach(svc *service.Service) {
	svc.OnPublish(func(id string, ep *service.Epoch) {
		// The hook runs under the entry's writer lock, so append errors
		// cannot be returned to the updater; a primary that cannot
		// persist its log must not silently keep publishing. Panic — the
		// daemon treats a dead log volume as fatal.
		if err := l.AppendEpoch(id, ep); err != nil {
			panic(err)
		}
	})
}

// Close releases the file handle; later appends and reads fail with
// os.ErrClosed. Closing an in-memory log is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.data.(io.Closer)
	if !ok {
		return nil
	}
	l.data = closedFrames{}
	return c.Close()
}
