// Package store persists oracle runs: a versioned binary codec for a
// graph.Graph together with its per-node advice assignment, so a
// precomputed run — minutes of Borůvka decomposition and encoding at
// n = 10⁶ — round-trips to disk and reloads in time linear in the file,
// without re-running the oracle.
//
// # Format (version 3)
//
// All integers are unsigned LEB128 varints unless noted; "zigzag" marks
// signed values folded into varints (encoding/binary conventions). The
// layout is
//
//	magic     8 bytes "MSTADV\x00\x03" (version baked into the magic)
//	n         node count
//	m         edge count
//	root      designated root
//	problem   name length (1..64), then that many bytes — the advice
//	            problem's registry key ("mst", "topo", ...)
//	payload   per-problem payload length, then that many bytes; today a
//	            single varint: the oracle's scalar parameter (the
//	            packed-advice cap for mst, the beacon radius for topo)
//	ids       n zigzag deltas id[u] − id[u−1] (id[−1] = 0)
//	edges     m records in EdgeID order:
//	            zigzag ΔU (U − U of previous record), V, PU, PV, W
//	advice    1 byte flag; if 1:
//	            maxBits, then n per-node bit lengths,
//	            then ⌈Σlen/8⌉ payload bytes, all strings bit-packed
//	            back to back, LSB-first within each byte, the padding
//	            bits after the last string clear (AppendBits)
//	tiers     tier count (0..64); per tier (internal/hier builds them):
//	            level, coarse n, coarse m, coarse root, then the coarse
//	            graph's ids and edges sections, then coarse-m strictly
//	            ascending original-edge deltas (Δ from −1, each ≥ 1) —
//	            the cross-level expansion hints — then the coarse
//	            advice section (same layout as advice)
//	crc       4 bytes little-endian IEEE CRC32 of everything above
//
// Version 2 — the flat layout without the tier section. Decode still
// accepts it (Snapshot.Version records what was read, and Encode honors
// it, so flat v2 artifacts round-trip byte-identically); Encode writes
// version 3 for Snapshot.Version 0.
//
// Version 1 — the MST-only layout that predates the advice-problem
// platform (DESIGN.md §2.8): identical to version 2 except that the
// problem and payload sections are replaced by a bare cap varint after
// root. Decode still accepts it, mapping the snapshot to the "mst"
// problem, so every committed artifact and -load workflow from before
// the bumps keeps working; legacy input re-encodes to the current
// version.
//
// Edges carry explicit ports (graph.FromEdgeList) because a graph that has
// lived through dynamic deletions no longer has insertion-order ports;
// the delta on U costs one byte for almost every edge of a generator
// family, whose records are grouped by lower endpoint. Advice strings
// decode into one bitstring.Arena (two allocations for all n strings),
// mirroring the oracle's own layout.
//
// Decode never panics on malformed input: every length is bounds-checked
// against the buffer and against sanity limits derived from the header,
// and the CRC footer rejects truncation and bit rot up front (fuzzed in
// fuzz_test.go). Every value has one encoding — varints must be minimal
// and padding bits clear — so accepted input re-encodes to itself. The
// decoder's Cursor, AppendBits and the record framing in log.go are
// also the epoch log's and the replica wire's codec (DESIGN.md §2.10);
// WriteSnapshotRecord streams a snapshot into such a record.
//
// DecodeNext decodes a snapshot against the graph of its predecessor:
// when the structure is unchanged, the decoded graph shares the
// predecessor's CSR and identifiers (graph.Reweighted). Decoded graphs
// may therefore share storage, which is why they are never mutated.
//
// See DESIGN.md §2.6 for the snapshot format rationale and the serving
// layer built on it.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"mstadvice/internal/bitstring"
	"mstadvice/internal/graph"
)

// magic identifies the format and its version. Bumping the version means
// changing the last byte, so older readers fail with "unsupported
// version" instead of misparsing.
var magic = [8]byte{'M', 'S', 'T', 'A', 'D', 'V', 0, 3}

// magicV2 is the flat platform format without the tier section, still
// decoded and (via Snapshot.Version) still writable for tier-free
// snapshots, so the committed v2 artifacts keep their exact bytes.
var magicV2 = [8]byte{'M', 'S', 'T', 'A', 'D', 'V', 0, 2}

// magicV1 is the pre-platform MST-only format, still decoded.
var magicV1 = [8]byte{'M', 'S', 'T', 'A', 'D', 'V', 0, 1}

// maxTiers bounds the tier section; tier levels track the Borůvka
// tower, whose depth is ⌈log n⌉ ≤ 28 under maxReasonable.
const maxTiers = 64

// maxProblemName bounds the problem-name section; registry keys are
// short ("mst", "topo").
const maxProblemName = 64

// Snapshot is one stored oracle run: the problem, the graph, the
// designated root, the oracle parameter, and (optionally) the per-node
// advice assignment.
type Snapshot struct {
	// Problem is the advice problem's registry key. Encode treats the
	// empty string as "mst" (the platform's first problem, and the only
	// one version-1 snapshots could hold); Decode always fills it in.
	Problem string
	Graph   *graph.Graph
	Root    graph.NodeID
	// Cap is the problem's scalar oracle parameter — the packed-advice
	// budget (core.DefaultCap) for mst, the beacon radius for topo —
	// the advice was built with; consumers need it to rebuild an oracle
	// that reproduces the stored bits.
	Cap int
	// Advice is the per-node assignment, nil when the snapshot stores a
	// bare graph.
	Advice []*bitstring.BitString
	// Tiers is the optional tiered-snapshot section (version 3): coarse
	// contracted graphs with their own advice, finest level first by
	// convention. Empty for flat snapshots.
	Tiers []Tier
	// Version selects the wire format Encode writes: 0 means the current
	// version (3), 2 forces the flat version-2 layout (rejected when
	// Tiers is non-empty). Decode sets it to the version it read (0 for
	// legacy version-1 input, which re-encodes to the current version),
	// so decode→encode is a byte-level fixed point on every supported
	// version.
	Version int
}

// Tier is one coarse level of a tiered snapshot: the contracted graph
// at a Borůvka tower level (internal/hier builds it), whose node IDs
// are the original IDs of the fragments' representative nodes, plus the
// expansion hints a consumer needs to act on the full graph — for each
// coarse edge, the original edge realizing it — and the coarse graph's
// own advice assignment.
type Tier struct {
	// Level is the tower level (≥ 1) the tier coarsens to.
	Level int
	// Graph is the contracted graph (dense coarse node indices).
	Graph *graph.Graph
	// Root is the coarse node whose fragment holds the original root.
	Root graph.NodeID
	// OrigEdge[e] is the original-graph edge the coarse edge e
	// realizes, strictly ascending in e (the canonical coarse edge
	// order is by original edge).
	OrigEdge []graph.EdgeID
	// Advice is the per-coarse-node assignment, nil for a bare tier.
	Advice []*bitstring.BitString
}

// maxReasonable bounds per-item counts decoded from headers before any
// allocation is sized from them, so a corrupt header cannot request a
// multi-gigabyte slice. 1<<28 nodes/edges is far beyond the repository's
// n = 10⁶ operating point while still letting the codec scale. It is the
// tighter of the two bounds on a decoded graph: graph.FromEdgeList itself
// accepts up to math.MaxInt32 nodes and math.MaxInt32/2 edges.
const maxReasonable = 1 << 28

// Encode serialises the snapshot in the version Snapshot.Version
// selects (0 means current), into one buffer of exactly its length.
func Encode(s *Snapshot) ([]byte, error) {
	h, err := newHeader(s)
	if err != nil {
		return nil, err
	}
	var e encoder
	return e.snapshot(make([]byte, 0, h.size(s)), s, h)
}

// header is what Encode and Save settle before writing a byte: the
// format version, the problem name and the encoded per-problem payload.
type header struct {
	version int
	prob    string
	payload [binary.MaxVarintLen64]byte
	plen    int
}

// newHeader validates s and settles its header.
func newHeader(s *Snapshot) (*header, error) {
	if s == nil || s.Graph == nil {
		return nil, fmt.Errorf("store: nil snapshot")
	}
	h := &header{version: s.Version, prob: s.Problem}
	if h.version == 0 {
		h.version = 3
	}
	switch h.version {
	case 3:
	case 2:
		if len(s.Tiers) > 0 {
			return nil, fmt.Errorf("store: version 2 cannot hold %d tiers", len(s.Tiers))
		}
	default:
		return nil, fmt.Errorf("store: cannot encode version %d (writable: 2, 3)", h.version)
	}
	n := s.Graph.N()
	if s.Advice != nil && len(s.Advice) != n {
		return nil, fmt.Errorf("store: %d advice strings for %d nodes", len(s.Advice), n)
	}
	if s.Root < 0 || (n > 0 && int(s.Root) >= n) {
		return nil, fmt.Errorf("store: root %d out of range [0,%d)", s.Root, n)
	}
	if s.Cap < 0 {
		return nil, fmt.Errorf("store: negative cap %d", s.Cap)
	}
	if h.prob == "" {
		h.prob = "mst"
	}
	if len(h.prob) > maxProblemName {
		return nil, fmt.Errorf("store: problem name %q longer than %d bytes", h.prob, maxProblemName)
	}
	// Per-problem payload: today a single varint, the oracle parameter.
	h.plen = binary.PutUvarint(h.payload[:], uint64(s.Cap))
	if h.version == 3 {
		if err := checkTiers(s); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// size is the length of s's encoding, footer included: a sizing pass
// over the fields encoder.snapshot writes, so Encode allocates its
// buffer once.
func (h *header) size(s *Snapshot) int {
	g := s.Graph
	size := len(magic) + uvarintLen(uint64(g.N())) + uvarintLen(uint64(g.M())) + uvarintLen(uint64(s.Root)) +
		uvarintLen(uint64(len(h.prob))) + len(h.prob) + uvarintLen(uint64(h.plen)) + h.plen +
		graphBodyLen(g) + adviceSectionLen(s.Advice) + 4
	if h.version == 3 {
		size += tiersLen(s)
	}
	return size
}

// flushAt is the streaming encoder's write size: stream hands its
// writer the snapshot in writes of about flushAt bytes.
const flushAt = 64 << 10

// stream writes s, whose header newHeader settled, to w through the
// streaming encoder: Save's file, or a record's body
// (WriteSnapshotRecord).
func stream(w io.Writer, s *Snapshot, h *header) error {
	e := encoder{sink: w}
	_, err := e.snapshot(make([]byte, 0, flushAt+flushAt/8), s, h)
	return err
}

// encoder is the snapshot codec's one writer, with two sinks: its
// methods append to a buffer and return it, as the append functions of
// encoding/binary do. With a sink (stream), spill hands the buffer to the
// sink whenever it holds flushAt bytes, so it stays small; without one
// (Encode), the buffer grows to the whole encoding. crc covers the
// bytes already handed over; finish adds the rest and the footer.
type encoder struct {
	sink io.Writer
	crc  uint32
	err  error // the sink's first write error; later writes are dropped
}

// spill hands buf to the sink once it holds flushAt bytes and returns
// the buffer to append to next. It is small enough to inline into the
// per-record loops; write is the rare slow path.
func (e *encoder) spill(buf []byte) []byte {
	if e.sink == nil || len(buf) < flushAt {
		return buf
	}
	return e.write(buf)
}

// write hashes buf, writes it to the sink and returns it emptied.
func (e *encoder) write(buf []byte) []byte {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, buf)
	if e.err == nil {
		_, e.err = e.sink.Write(buf)
	}
	return buf[:0]
}

// finish appends the CRC footer and, with a sink, writes what buf
// holds.
func (e *encoder) finish(buf []byte) ([]byte, error) {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, buf)
	buf = binary.LittleEndian.AppendUint32(buf, e.crc)
	if e.sink != nil && e.err == nil {
		_, e.err = e.sink.Write(buf)
	}
	return buf, e.err
}

// snapshot writes s, whose header newHeader settled, and the footer.
func (e *encoder) snapshot(buf []byte, s *Snapshot, h *header) ([]byte, error) {
	g := s.Graph
	if h.version == 2 {
		buf = append(buf, magicV2[:]...)
	} else {
		buf = append(buf, magic[:]...)
	}
	buf = binary.AppendUvarint(buf, uint64(g.N()))
	buf = binary.AppendUvarint(buf, uint64(g.M()))
	buf = binary.AppendUvarint(buf, uint64(s.Root))
	buf = AppendString(buf, h.prob)
	buf = binary.AppendUvarint(buf, uint64(h.plen))
	buf = append(buf, h.payload[:h.plen]...)
	buf, err := e.graphBody(buf, g)
	if err != nil {
		return nil, err
	}
	buf = e.adviceSection(buf, s.Advice)
	if h.version == 3 {
		if buf, err = e.tiers(buf, s); err != nil {
			return nil, err
		}
	}
	return e.finish(buf)
}

// graphBody writes the id and edge sections shared by the main graph
// and the tier coarse graphs.
func (e *encoder) graphBody(buf []byte, g *graph.Graph) ([]byte, error) {
	prevID := int64(0)
	for _, id := range g.IDs() {
		buf = binary.AppendVarint(buf, id-prevID)
		prevID = id
		buf = e.spill(buf)
	}
	prevU := int64(0)
	for _, r := range g.Edges() {
		if r.W < 0 {
			return nil, fmt.Errorf("store: negative weight %d", r.W)
		}
		buf = binary.AppendVarint(buf, int64(r.U)-prevU)
		prevU = int64(r.U)
		buf = binary.AppendUvarint(buf, uint64(r.V))
		buf = binary.AppendUvarint(buf, uint64(r.PU))
		buf = binary.AppendUvarint(buf, uint64(r.PV))
		buf = binary.AppendUvarint(buf, uint64(r.W))
		buf = e.spill(buf)
	}
	return buf, nil
}

// graphBodyLen is the length encoder.graphBody writes for g.
func graphBodyLen(g *graph.Graph) int {
	size := 0
	prevID := int64(0)
	for _, id := range g.IDs() {
		size += varintLen(id - prevID)
		prevID = id
	}
	prevU := int64(0)
	for _, e := range g.Edges() {
		size += varintLen(int64(e.U)-prevU) + uvarintLen(uint64(e.V)) + uvarintLen(uint64(e.PU)) +
			uvarintLen(uint64(e.PV)) + uvarintLen(uint64(e.W))
		prevU = int64(e.U)
	}
	return size
}

// varintLen is the length of v's signed (zigzag) varint encoding;
// uvarintLen (log.go) is the unsigned one.
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// adviceSection writes the flag byte plus, when advice is present, the
// max-bits header, the per-node lengths and the bit-packed payload —
// for the main assignment and for each tier's.
func (e *encoder) adviceSection(buf []byte, advice []*bitstring.BitString) []byte {
	if advice == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	maxBits := 0
	for _, a := range advice {
		maxBits = max(maxBits, a.Len())
	}
	buf = binary.AppendUvarint(buf, uint64(maxBits))
	for _, a := range advice {
		buf = binary.AppendUvarint(buf, uint64(a.Len()))
		buf = e.spill(buf)
	}
	var p bitPacker
	for _, a := range advice {
		buf = e.spill(p.add(buf, a))
	}
	return p.flush(buf)
}

// adviceSectionLen is the length encoder.adviceSection writes for
// advice.
func adviceSectionLen(advice []*bitstring.BitString) int {
	if advice == nil {
		return 1
	}
	maxBits, total, lens := 0, 0, 0
	for _, a := range advice {
		maxBits = max(maxBits, a.Len())
		total += a.Len()
		lens += uvarintLen(uint64(a.Len()))
	}
	return 1 + uvarintLen(uint64(maxBits)) + lens + (total+7)/8
}

// checkTiers validates the version-3 tier section's fields before
// anything is sized or written.
func checkTiers(s *Snapshot) error {
	if len(s.Tiers) > maxTiers {
		return fmt.Errorf("store: %d tiers exceed the limit %d", len(s.Tiers), maxTiers)
	}
	for ti := range s.Tiers {
		t := &s.Tiers[ti]
		if t.Graph == nil {
			return fmt.Errorf("store: tier %d has no graph", ti)
		}
		cn, cm := t.Graph.N(), t.Graph.M()
		switch {
		case t.Level < 1:
			return fmt.Errorf("store: tier %d level %d below 1", ti, t.Level)
		case cn > s.Graph.N():
			return fmt.Errorf("store: tier %d has %d coarse nodes for %d original", ti, cn, s.Graph.N())
		case t.Root < 0 || int(t.Root) >= cn:
			return fmt.Errorf("store: tier %d root %d out of range [0,%d)", ti, t.Root, cn)
		case len(t.OrigEdge) != cm:
			return fmt.Errorf("store: tier %d has %d original-edge hints for %d coarse edges", ti, len(t.OrigEdge), cm)
		case t.Advice != nil && len(t.Advice) != cn:
			return fmt.Errorf("store: tier %d has %d advice strings for %d coarse nodes", ti, len(t.Advice), cn)
		}
		prev := int64(-1)
		for ei, orig := range t.OrigEdge {
			if int64(orig) <= prev || int(orig) >= s.Graph.M() {
				return fmt.Errorf("store: tier %d original edges not ascending within [0,%d) at index %d", ti, s.Graph.M(), ei)
			}
			prev = int64(orig)
		}
	}
	return nil
}

// tiers writes the version-3 tier section, which checkTiers has
// validated: the tier count, then per tier the level, the coarse
// node/edge counts, the coarse root, the coarse graph body, the
// ascending original-edge deltas and the coarse advice section.
func (e *encoder) tiers(buf []byte, s *Snapshot) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(s.Tiers)))
	for ti := range s.Tiers {
		t := &s.Tiers[ti]
		buf = binary.AppendUvarint(buf, uint64(t.Level))
		buf = binary.AppendUvarint(buf, uint64(t.Graph.N()))
		buf = binary.AppendUvarint(buf, uint64(t.Graph.M()))
		buf = binary.AppendUvarint(buf, uint64(t.Root))
		var err error
		if buf, err = e.graphBody(buf, t.Graph); err != nil {
			return nil, err
		}
		prev := int64(-1)
		for _, orig := range t.OrigEdge {
			buf = binary.AppendUvarint(buf, uint64(int64(orig)-prev))
			prev = int64(orig)
			buf = e.spill(buf)
		}
		buf = e.adviceSection(buf, t.Advice)
	}
	return buf, nil
}

// tiersLen is the length encoder.tiers writes for s's tiers.
func tiersLen(s *Snapshot) int {
	size := uvarintLen(uint64(len(s.Tiers)))
	for ti := range s.Tiers {
		t := &s.Tiers[ti]
		size += uvarintLen(uint64(t.Level)) + uvarintLen(uint64(t.Graph.N())) +
			uvarintLen(uint64(t.Graph.M())) + uvarintLen(uint64(t.Root)) +
			graphBodyLen(t.Graph) + adviceSectionLen(t.Advice)
		prev := int64(-1)
		for _, orig := range t.OrigEdge {
			size += uvarintLen(uint64(int64(orig) - prev))
			prev = int64(orig)
		}
	}
	return size
}

// AppendBits packs the strings back to back onto buf, LSB-first within
// each byte, in ⌈Σlen/8⌉ bytes with the padding bits clear — the layout
// of the advice section, and of the wire's advice reply for one string.
func AppendBits(buf []byte, strs ...*bitstring.BitString) []byte {
	var p bitPacker
	for _, s := range strs {
		buf = p.add(buf, s)
	}
	return p.flush(buf)
}

// bitPacker packs bit strings back to back, LSB-first, as AppendBits
// lays them out; acc holds the n < 8 packed bits not yet appended.
type bitPacker struct {
	acc uint64
	n   uint
}

// add appends s's bits to buf a word of s at a time, keeping the last
// n < 8 of them in the packer.
func (p *bitPacker) add(buf []byte, s *bitstring.BitString) []byte {
	bits, words := s.Len(), s.Words()
	for i := 0; i < bits; i += 64 {
		w, take := words[i/64], uint(min(64, bits-i))
		if take < 64 {
			w &= 1<<take - 1
		}
		lo, total := p.acc|w<<p.n, p.n+take
		if total >= 64 {
			buf = binary.LittleEndian.AppendUint64(buf, lo)
			p.acc, p.n = w>>(64-p.n), total-64 // a shift by 64 yields 0
			continue
		}
		for ; total >= 8; total -= 8 {
			buf = append(buf, byte(lo))
			lo >>= 8
		}
		p.acc, p.n = lo, total
	}
	return buf
}

// flush appends the last partial byte, its padding bits clear.
func (p *bitPacker) flush(buf []byte) []byte {
	if p.n > 0 {
		buf = append(buf, byte(p.acc))
	}
	p.acc, p.n = 0, 0
	return buf
}

// Cursor is a bounds-checked reader over one encoded buffer: a snapshot,
// a record length header, or a wire frame's payload. Every varint must
// be minimal, so every value has exactly one encoding — the property
// that lets the fuzz tests assert accepted inputs are re-encoding fixed
// points. Errors name the field and its offset.
type Cursor struct {
	buf []byte
	pos int
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) *Cursor { return &Cursor{buf: b} }

// Uvarint reads one minimal unsigned varint.
func (d *Cursor) Uvarint(what string) (uint64, error) {
	v, k := binary.Uvarint(d.buf[d.pos:])
	if k <= 0 {
		return 0, fmt.Errorf("store: truncated or malformed %s at offset %d", what, d.pos)
	}
	// Reject padded (non-minimal) varints.
	if k > 1 && d.buf[d.pos+k-1] == 0 {
		return 0, fmt.Errorf("store: non-minimal varint %s at offset %d", what, d.pos)
	}
	d.pos += k
	return v, nil
}

func (d *Cursor) varint(what string) (int64, error) {
	u, err := d.Uvarint(what)
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil // zigzag, as binary.Varint
}

func (d *Cursor) count(what string) (int, error) {
	v, err := d.Uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > maxReasonable {
		return 0, fmt.Errorf("store: %s %d exceeds the sanity limit", what, v)
	}
	return int(v), nil
}

// String reads a string of at most limit bytes: a varint length, then
// that many bytes (the layout AppendString writes).
func (d *Cursor) String(what string, limit int) (string, error) {
	l, err := d.Uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if l > uint64(limit) {
		return "", fmt.Errorf("store: %s of %d bytes exceeds the %d limit", what, l, limit)
	}
	if int(l) > len(d.buf)-d.pos {
		return "", fmt.Errorf("store: truncated %s at offset %d", what, d.pos)
	}
	str := string(d.buf[d.pos : d.pos+int(l)])
	d.pos += int(l)
	return str, nil
}

// AppendString writes s as a varint length and its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Bits reads one n-bit string packed as AppendBits packs it.
func (d *Cursor) Bits(n uint64, what string) (*bitstring.BitString, error) {
	payload, err := d.packed(n, what)
	if err != nil {
		return nil, err
	}
	s := bitstring.New(int(n))
	loadPacked(s, payload, 0, int(n))
	return s, nil
}

// packed takes the ⌈total/8⌉-byte packed payload of total bits off the
// cursor. The padding bits after the last string must be clear, which
// is what AppendBits writes, so packed bits have one encoding too.
func (d *Cursor) packed(total uint64, what string) ([]byte, error) {
	if total > 8*uint64(len(d.buf)-d.pos) {
		return nil, fmt.Errorf("store: %s truncated: have %d bytes, need %d", what, len(d.buf)-d.pos, (total+7)/8)
	}
	payload := d.buf[d.pos : d.pos+int((total+7)/8)]
	if tail := total % 8; tail != 0 && payload[len(payload)-1]>>tail != 0 {
		return nil, fmt.Errorf("store: %s has set padding bits after bit %d", what, total)
	}
	d.pos += len(payload)
	return payload, nil
}

// Rest returns the unread bytes; they alias the buffer.
func (d *Cursor) Rest() []byte { return d.buf[d.pos:] }

// End reports an error unless every byte has been read.
func (d *Cursor) End(what string) error {
	if d.pos != len(d.buf) {
		return fmt.Errorf("store: %d trailing bytes after the %s", len(d.buf)-d.pos, what)
	}
	return nil
}

// Decode parses an encoded snapshot. It validates the magic, the CRC
// footer, and every structural invariant of the graph (via
// graph.FromEdgeList's Validate pass), and is safe on arbitrary input.
func Decode(data []byte) (*Snapshot, error) { return DecodeNext(data, nil) }

// DecodeNext is Decode against prev, the graph of the snapshot's
// predecessor — the epoch a follower holds when the next one arrives.
// When the snapshot repeats prev's identifiers and every edge's
// endpoints and ports, as each epoch of a batch that only changed
// weights does, its graph is prev.Reweighted(edges): it shares prev's
// CSR and identifiers, allocates neither, and skips graph.FromEdgeList,
// whose checks already held for exactly that structure. The CRC and
// every per-record check still run; any difference, or a prev whose
// deletions left free ports, decodes as Decode does, as does the advice
// section always. prev nil is Decode. The result may share storage with
// prev, so neither may be mutated (see graph.Reweighted).
func DecodeNext(data []byte, prev *graph.Graph) (*Snapshot, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("store: %d bytes is too short for a snapshot", len(data))
	}
	if string(data[:6]) != string(magic[:6]) {
		return nil, fmt.Errorf("store: bad magic %q", data[:6])
	}
	version := data[7]
	if data[6] != 0 || (version != magic[7] && version != magicV2[7] && version != magicV1[7]) {
		return nil, fmt.Errorf("store: unsupported format version %d.%d", data[6], data[7])
	}
	body, foot := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(foot); got != want {
		return nil, fmt.Errorf("store: CRC mismatch: file says %08x, content hashes to %08x (truncated or corrupt)", want, got)
	}
	d := &Cursor{buf: body, pos: len(magic)}
	n, err := d.count("node count")
	if err != nil {
		return nil, err
	}
	m, err := d.count("edge count")
	if err != nil {
		return nil, err
	}
	root, err := d.Uvarint("root")
	if err != nil {
		return nil, err
	}
	if n > 0 && root >= uint64(n) {
		return nil, fmt.Errorf("store: root %d out of range [0,%d)", root, n)
	}
	prob := "mst" // the only problem the version-1 layout could hold
	var capBits int
	if version == magicV1[7] {
		// Legacy layout: a bare cap varint in place of the problem and
		// payload sections.
		if capBits, err = d.count("cap"); err != nil {
			return nil, err
		}
	} else {
		if prob, err = d.problemName(); err != nil {
			return nil, err
		}
		if capBits, err = d.problemPayload(); err != nil {
			return nil, err
		}
	}
	g, err := d.decodeGraphBody(n, m, prev)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Problem: prob, Graph: g, Root: graph.NodeID(root), Cap: capBits}
	switch version {
	case magicV2[7]:
		snap.Version = 2
	case magic[7]:
		snap.Version = 3
	}
	if snap.Advice, err = d.adviceSection(n); err != nil {
		return nil, err
	}
	if version == magic[7] {
		if snap.Tiers, err = d.decodeTiers(n, m); err != nil {
			return nil, err
		}
	}
	if err := d.End("snapshot"); err != nil {
		return nil, err
	}
	return snap, nil
}

// decodeGraphBody parses the id and edge sections shared by the main
// graph and the tier coarse graphs. Against a prev of n nodes, m edges
// and no free ports (DecodeNext), identifiers equal to prev's are
// compared as they are read and not stored: the identifier array is
// allocated, from prev's prefix, only at the first that differs.
func (d *Cursor) decodeGraphBody(n, m int, prev *graph.Graph) (*graph.Graph, error) {
	if prev != nil && (prev.N() != n || prev.M() != m || prev.NumHalves() != 2*m) {
		prev = nil
	}
	var prevIDs, ids []int64
	if prev != nil {
		prevIDs = prev.IDs()
	} else {
		ids = make([]int64, n)
	}
	id := int64(0)
	for u := 0; u < n; u++ {
		delta, err := d.varint("node ID delta")
		if err != nil {
			return nil, err
		}
		id += delta
		if ids == nil {
			if id == prevIDs[u] {
				continue
			}
			ids = make([]int64, n)
			copy(ids, prevIDs[:u])
		}
		ids[u] = id
	}
	edges := make([]graph.Edge, m)
	prevU := int64(0)
	for ei := range edges {
		dU, err := d.varint("edge endpoint delta")
		if err != nil {
			return nil, err
		}
		// An endpoint must fit a NodeID here; graph.FromEdgeList checks
		// it against n, like every other property of the records.
		prevU += dU
		if prevU < 0 || prevU > math.MaxInt32 {
			return nil, fmt.Errorf("store: edge %d endpoint %d out of the node ID range", ei, prevU)
		}
		v, err := d.Uvarint("edge endpoint")
		if err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("store: edge %d endpoint %d out of the node ID range", ei, v)
		}
		pu, err := d.count("edge port")
		if err != nil {
			return nil, err
		}
		pv, err := d.count("edge port")
		if err != nil {
			return nil, err
		}
		w, err := d.Uvarint("edge weight")
		if err != nil {
			return nil, err
		}
		if w > math.MaxInt64 {
			return nil, fmt.Errorf("store: edge %d weight %d overflows", ei, w)
		}
		edges[ei] = graph.Edge{
			U: graph.NodeID(prevU), V: graph.NodeID(v),
			PU: int32(pu), PV: int32(pv), W: graph.Weight(w),
		}
	}
	if ids == nil {
		if g, ok := prev.Reweighted(edges); ok {
			return g, nil
		}
		ids = slices.Clone(prevIDs)
	}
	// The graph takes ownership of ids and edges: no copy is made.
	return graph.FromEdgeList(n, ids, edges, 0)
}

// adviceSection parses a flag byte plus, when set, an advice section of
// n strings.
func (d *Cursor) adviceSection(n int) ([]*bitstring.BitString, error) {
	if d.pos >= len(d.buf) {
		return nil, fmt.Errorf("store: truncated before the advice flag")
	}
	flag := d.buf[d.pos]
	d.pos++
	switch flag {
	case 0:
		return nil, nil
	case 1:
		return d.decodeAdvice(n)
	default:
		return nil, fmt.Errorf("store: bad advice flag %d", flag)
	}
}

// decodeTiers parses the version-3 tier section against the main
// graph's dimensions.
func (d *Cursor) decodeTiers(mainN, mainM int) ([]Tier, error) {
	count, err := d.count("tier count")
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, nil
	}
	if count > maxTiers {
		return nil, fmt.Errorf("store: tier count %d exceeds the limit %d", count, maxTiers)
	}
	tiers := make([]Tier, count)
	for ti := range tiers {
		level, err := d.count("tier level")
		if err != nil {
			return nil, err
		}
		if level < 1 {
			return nil, fmt.Errorf("store: tier %d level %d below 1", ti, level)
		}
		cn, err := d.count("tier node count")
		if err != nil {
			return nil, err
		}
		if cn < 1 || cn > mainN {
			return nil, fmt.Errorf("store: tier %d has %d coarse nodes for %d original", ti, cn, mainN)
		}
		cm, err := d.count("tier edge count")
		if err != nil {
			return nil, err
		}
		if cm > mainM {
			return nil, fmt.Errorf("store: tier %d has %d coarse edges for %d original", ti, cm, mainM)
		}
		root, err := d.Uvarint("tier root")
		if err != nil {
			return nil, err
		}
		if root >= uint64(cn) {
			return nil, fmt.Errorf("store: tier %d root %d out of range [0,%d)", ti, root, cn)
		}
		g, err := d.decodeGraphBody(cn, cm, nil)
		if err != nil {
			return nil, err
		}
		origEdge := make([]graph.EdgeID, cm)
		prev := int64(-1)
		for ei := range origEdge {
			delta, err := d.Uvarint("tier original-edge delta")
			if err != nil {
				return nil, err
			}
			if delta == 0 {
				return nil, fmt.Errorf("store: tier %d original edges not strictly ascending at index %d", ti, ei)
			}
			// Bounding delta first keeps int64(delta) from wrapping
			// negative and slipping under the range check.
			if delta > uint64(mainM) {
				return nil, fmt.Errorf("store: tier %d original edge delta %d out of range [1,%d]", ti, delta, mainM)
			}
			prev += int64(delta)
			if prev >= int64(mainM) {
				return nil, fmt.Errorf("store: tier %d original edge %d out of range [0,%d)", ti, prev, mainM)
			}
			origEdge[ei] = graph.EdgeID(prev)
		}
		advice, err := d.adviceSection(cn)
		if err != nil {
			return nil, err
		}
		tiers[ti] = Tier{Level: level, Graph: g, Root: graph.NodeID(root), OrigEdge: origEdge, Advice: advice}
	}
	return tiers, nil
}

// problemName parses the version-2 problem-name section.
func (d *Cursor) problemName() (string, error) {
	name, err := d.String("problem name", maxProblemName)
	if err == nil && name == "" {
		err = fmt.Errorf("store: empty problem name at offset %d", d.pos)
	}
	return name, err
}

// problemPayload parses the version-2 per-problem payload section: one
// varint, the oracle parameter. The declared length must match the
// varint exactly — any slack would break the canonical-encoding
// property the fuzz test pins (accepted inputs re-encode byte-identical).
func (d *Cursor) problemPayload() (int, error) {
	plen, err := d.Uvarint("problem payload length")
	if err != nil {
		return 0, err
	}
	if plen == 0 || plen > binary.MaxVarintLen64 {
		return 0, fmt.Errorf("store: problem payload length %d outside [1,%d]", plen, binary.MaxVarintLen64)
	}
	if d.pos+int(plen) > len(d.buf) {
		return 0, fmt.Errorf("store: truncated problem payload at offset %d", d.pos)
	}
	sub := &Cursor{buf: d.buf[:d.pos+int(plen)], pos: d.pos}
	capBits, err := sub.count("oracle parameter")
	if err != nil {
		return 0, err
	}
	if sub.pos != d.pos+int(plen) {
		return 0, fmt.Errorf("store: problem payload declares %d bytes, parameter uses %d", plen, sub.pos-d.pos)
	}
	d.pos = sub.pos
	return capBits, nil
}

// decodeAdvice parses the advice section into a single arena. The
// declared maximum must equal the actual maximum length — that keeps
// the encoding canonical (Encode writes max(lengths), so any other
// value cannot re-encode to the same bytes) and refuses the padded
// headers a hostile file could otherwise use — and the arena is sized
// from the per-node lengths alone (NewRaggedArena), so the allocation
// is bounded by a constant factor of the input that declared it. The
// first read of the lengths checks them; the arena and the load read
// them again from the buffer instead of keeping a copy.
func (d *Cursor) decodeAdvice(n int) ([]*bitstring.BitString, error) {
	maxBits, err := d.count("max advice bits")
	if err != nil {
		return nil, err
	}
	first := d.pos
	total, actualMax := 0, 0
	for u := 0; u < n; u++ {
		bits, err := d.count("advice length")
		if err != nil {
			return nil, err
		}
		if bits > maxBits {
			return nil, fmt.Errorf("store: node %d advice of %d bits exceeds declared maximum %d", u, bits, maxBits)
		}
		if bits > actualMax {
			actualMax = bits
		}
		total += bits
	}
	if maxBits != actualMax {
		return nil, fmt.Errorf("store: declared maximum advice size %d, actual maximum %d (non-canonical header)", maxBits, actualMax)
	}
	payload, err := d.packed(uint64(total), "advice payload")
	if err != nil {
		return nil, err
	}
	lengths := func(yield func(int) bool) {
		for pos, u := first, 0; u < n; u++ {
			bits, k := binary.Uvarint(d.buf[pos:])
			pos += k
			if !yield(int(bits)) {
				return
			}
		}
	}
	arena := bitstring.NewRaggedArena(lengths)
	advice := make([]*bitstring.BitString, n)
	u, pos := 0, 0 // pos is the bit position in payload
	for bits := range lengths {
		advice[u] = arena.At(u)
		loadPacked(advice[u], payload, pos, bits)
		pos += bits
		u++
	}
	return advice, nil
}

// loadPacked loads s with the bits-long string at bit pos of a packed
// payload, a word at a time.
func loadPacked(s *bitstring.BitString, payload []byte, pos, bits int) {
	var scratch [16]uint64
	words := scratch[:0]
	for got := 0; got < bits; got += 64 {
		words = append(words, readWord(payload, pos+got, bits-got))
	}
	s.LoadWords(words, bits)
}

// readWord extracts up to 64 bits (LSB-first) starting at bit position
// pos of the packed payload.
func readWord(payload []byte, pos, bits int) uint64 {
	if bits > 64 {
		bits = 64
	}
	var w uint64
	for b := 0; b < bits; b += 8 {
		p := pos + b
		chunk := uint64(payload[p/8]) >> (uint(p) % 8)
		if p%8 != 0 && p/8+1 < len(payload) {
			chunk |= uint64(payload[p/8+1]) << (8 - uint(p)%8)
		}
		w |= chunk << uint(b)
	}
	if bits < 64 {
		w &= 1<<uint(bits) - 1
	}
	return w
}

// Save writes the snapshot to path (atomically: a temp file in the same
// directory, fsynced before a rename over the target, so a crash never
// leaves a torn snapshot behind — without the sync, a journaled rename
// can land before the data blocks and survive a power loss as an empty
// file under the final name). The encoder streams into the temp file
// through its flushAt-byte buffer, hashing as it writes, so no copy of
// the whole encoding is ever held; the file's bytes are Encode's.
func Save(path string, s *Snapshot) error {
	h, err := newHeader(s)
	if err != nil {
		return err
	}
	dir := dirOf(path)
	tmp, err := os.CreateTemp(dir, ".mstadv-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := stream(tmp, s, h); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself; best effort — some filesystems refuse
	// directory fsync, and the data is already safe on disk.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// WriteSnapshotRecord writes one record whose payload is head followed
// by s's encoding to w, and returns the frame's length: the bytes
// WriteRecord(w, head, blob) writes for blob = Encode(s). A sizing pass
// settles the length header, then the encoder streams into w through its
// flushAt-byte buffer, as Save does, and the record's CRC is hashed as
// the bytes pass, so no copy of the whole encoding is ever held. On an
// error, w may have received part of the frame.
func WriteSnapshotRecord(w io.Writer, head []byte, s *Snapshot) (int64, error) {
	h, err := newHeader(s)
	if err != nil {
		return 0, err
	}
	return writeRecord(w, head, h.size(s), func(w io.Writer) error { return stream(w, s, h) })
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// Load reads and decodes the snapshot at path.
func Load(path string) (*Snapshot, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return snap, nil
}

// OpenMapped decodes the snapshot at path through a read-only memory
// mapping instead of a heap copy of the file, so loading a multi-hundred-
// megabyte n = 10⁶ snapshot touches the page cache once and never holds
// file bytes and decoded graph in memory twice. The decoded snapshot owns
// all its storage; the mapping is released before returning. On platforms
// without mmap it falls back to Load.
func OpenMapped(path string) (*Snapshot, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	if unmap == nil {
		return Load(path) // platform fallback
	}
	defer unmap()
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return snap, nil
}
