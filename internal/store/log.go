package store

// Length-prefixed record framing for append-only logs and wire frames
// (DESIGN.md §2.10): every record is
//
//	length   payload byte count, minimal unsigned LEB128 varint
//	payload  that many bytes
//	crc      4 bytes little-endian IEEE CRC32 of the payload
//
// The snapshot codec above guards one self-contained file; this framing
// guards a *sequence* — an epoch log a primary appends to and replicas
// tail, or a stream of request/reply frames on a TCP connection. The
// per-record CRC means a torn tail (a crash mid-append) or a truncated
// connection surfaces as ErrTornRecord on exactly the damaged record,
// never as a misparse of the bytes that follow. Because the header is
// minimal, a record's frame length follows from its payload length
// (RecordLen).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
)

// ErrTornRecord marks a record whose length header, payload or CRC
// footer is incomplete or inconsistent — a torn log tail after a crash,
// a connection cut mid-frame, or a header declaring more than the
// reader's bound. Log replay truncates at the first torn record; wire
// readers treat it as a connection failure.
var ErrTornRecord = errors.New("store: torn record")

// MaxRecord bounds a record's payload for readers that take whole
// snapshots — wire replies and the epoch-log tail stream — so a corrupt
// or hostile length header cannot request a multi-gigabyte allocation.
// 1 GiB clears any snapshot this repository produces by orders of
// magnitude.
const MaxRecord = 1 << 30

// MaxString bounds every string field of a wire frame or an epoch-log
// record: a graph ID, which the service refuses beyond it, and a wire
// error message, which the server cuts to it.
const MaxString = 1 << 10

// AppendRecord frames payload onto buf: varint length, the payload
// bytes, and the payload's CRC32 footer.
func AppendRecord(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// WriteRecord writes one record whose payload is head followed by body
// to w — the length header and head in one write, body as given (never
// copied), then the CRC footer — and returns the frame's length.
func WriteRecord(w io.Writer, head, body []byte) (int64, error) {
	return writeRecord(w, head, len(body), func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
}

// writeRecord writes one record whose payload is head followed by the
// bodyLen bytes body writes: the length header and head in one write,
// then the body, hashed into the payload's CRC as it passes, then the
// CRC footer. A body of any other length is an error.
func writeRecord(w io.Writer, head []byte, bodyLen int, body func(io.Writer) error) (int64, error) {
	n := len(head) + bodyLen
	lead := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(head)), uint64(n))
	if _, err := w.Write(append(lead, head...)); err != nil {
		return 0, err
	}
	sink := &recordSink{w: w, crc: crc32.ChecksumIEEE(head)}
	if err := body(sink); err != nil {
		return 0, err
	}
	if sink.n != bodyLen {
		return 0, fmt.Errorf("store: record body of %d bytes, %d declared", sink.n, bodyLen)
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(nil, sink.crc)); err != nil {
		return 0, err
	}
	return RecordLen(n), nil
}

// recordSink passes a record's body to w, counting it and hashing it
// into the payload's CRC.
type recordSink struct {
	w   io.Writer
	crc uint32
	n   int
}

func (s *recordSink) Write(p []byte) (int, error) {
	s.crc = crc32.Update(s.crc, crc32.IEEETable, p)
	s.n += len(p)
	return s.w.Write(p)
}

// RecordLen returns the frame length of a record with an n-byte payload.
func RecordLen(n int) int64 {
	return int64(uvarintLen(uint64(n)) + n + 4)
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// ReadRecord reads one framed record of at most limit payload bytes from
// r into buf's storage (grown as needed; pass nil for a fresh buffer)
// and returns its payload. A clean end of input (no bytes before the
// next record) returns io.EOF; a record cut short, a non-minimal or
// over-bound length header and a CRC mismatch return an error wrapping
// ErrTornRecord. Any other read error — a timeout, a closed connection,
// a failing disk — is returned as it is.
func ReadRecord(r *bufio.Reader, limit int, buf []byte) ([]byte, error) {
	var head [binary.MaxVarintLen64]byte
	n := 0
	for n < len(head) && (n == 0 || head[n-1] >= 0x80) {
		b, err := r.ReadByte()
		if err == io.EOF && n == 0 {
			return nil, io.EOF
		} else if err != nil {
			return nil, torn("length header", err)
		}
		head[n] = b
		n++
	}
	length, err := (&Cursor{buf: head[:n]}).Uvarint("record length")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTornRecord, err)
	}
	if length > uint64(limit) {
		return nil, fmt.Errorf("%w: declared payload of %d bytes exceeds the %d limit", ErrTornRecord, length, limit)
	}
	body := slices.Grow(buf[:0], int(length)+4)[:length+4] // payload and CRC footer
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, torn("payload or CRC footer", err)
	}
	if err := checkCRC(body[:length], body[length:]); err != nil {
		return nil, err
	}
	return body[:length], nil
}

// torn maps the end of input inside a record to ErrTornRecord and passes
// every other read error through.
func torn(what string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %s cut short", ErrTornRecord, what)
	}
	return err
}

// RecordPayload checks one whole in-memory frame — a minimal length
// header that accounts for every byte, and the CRC footer — and returns
// its payload, which aliases frame.
func RecordPayload(frame []byte) ([]byte, error) {
	c := Cursor{buf: frame}
	length, err := c.Uvarint("record length")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTornRecord, err)
	}
	if length > uint64(len(frame)) || RecordLen(int(length)) != int64(len(frame)) {
		return nil, fmt.Errorf("%w: frame of %d bytes declares a %d-byte payload", ErrTornRecord, len(frame), length)
	}
	payload := frame[c.pos : len(frame)-4]
	if err := checkCRC(payload, frame[len(frame)-4:]); err != nil {
		return nil, err
	}
	return payload, nil
}

func checkCRC(payload, foot []byte) error {
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(foot); got != want {
		return fmt.Errorf("%w: CRC mismatch: footer says %08x, payload hashes to %08x", ErrTornRecord, want, got)
	}
	return nil
}
