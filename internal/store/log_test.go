package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"
)

func TestRecordCodecRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 1<<15),
		{0x00},
	}
	var stream []byte
	for _, p := range payloads {
		stream = AppendRecord(stream, p)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	for i, want := range payloads {
		got, err := ReadRecord(br, MaxRecord, nil)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d: %d bytes read, %d written", i, len(got), len(want))
		}
	}
	if _, err := ReadRecord(br, MaxRecord, nil); err != io.EOF {
		t.Fatalf("after last record: %v, want io.EOF", err)
	}
}

// TestRecordCodecTornTail pins the crash-recovery contract: any strict
// prefix of a record stream yields the complete records followed by
// either a clean io.EOF (cut exactly on a boundary) or ErrTornRecord —
// never a misparse, never a stall.
func TestRecordCodecTornTail(t *testing.T) {
	payloads := [][]byte{[]byte("first"), []byte("second record"), []byte("x")}
	var stream []byte
	boundaries := map[int]int{0: 0} // prefix length -> records readable there
	for i, p := range payloads {
		stream = AppendRecord(stream, p)
		boundaries[len(stream)] = i + 1
	}
	for cut := 0; cut <= len(stream); cut++ {
		br := bufio.NewReader(bytes.NewReader(stream[:cut]))
		reads := 0
		var err error
		for {
			var got []byte
			got, err = ReadRecord(br, MaxRecord, nil)
			if err != nil {
				break
			}
			if !bytes.Equal(got, payloads[reads]) {
				t.Fatalf("cut %d: record %d corrupted", cut, reads)
			}
			reads++
		}
		wantRecs, onBoundary := boundaries[cut]
		if !onBoundary {
			// Mid-record cut: every full record before it, then a torn error.
			for b, n := range boundaries {
				if b < cut && n > wantRecs {
					wantRecs = n
				}
			}
			if !errors.Is(err, ErrTornRecord) {
				t.Fatalf("cut %d: err = %v, want ErrTornRecord", cut, err)
			}
		} else if err != io.EOF {
			t.Fatalf("cut %d (boundary): err = %v, want io.EOF", cut, err)
		}
		if reads != wantRecs {
			t.Fatalf("cut %d: read %d records, want %d", cut, reads, wantRecs)
		}
	}
}

// TestRecordCodecRejectsCorruption flips every byte of a framed record
// and requires the reader to fail rather than return altered bytes.
func TestRecordCodecRejectsCorruption(t *testing.T) {
	frame := AppendRecord(nil, []byte("payload under test"))
	for i := range frame {
		mutated := append([]byte(nil), frame...)
		mutated[i] ^= 0x40
		if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(mutated)), MaxRecord, nil); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

// TestReadRecordBound pins the per-reader bound: a 5-byte header that
// declares 1 GiB fails as a torn record before any payload buffer is
// allocated, and a payload exactly at the bound still reads.
func TestReadRecordBound(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadRecord(bufio.NewReader(bytes.NewReader(huge)), 1024, nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTornRecord) {
		t.Fatalf("1 GiB header under a 1 KiB bound: %v, want ErrTornRecord", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the header allocated %d bytes", grew)
	}
	frame := AppendRecord(nil, make([]byte, 16))
	if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(frame)), 16, nil); err != nil {
		t.Fatalf("payload at the bound: %v", err)
	}
	if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(frame)), 15, nil); !errors.Is(err, ErrTornRecord) {
		t.Fatalf("payload one byte over the bound: %v, want ErrTornRecord", err)
	}
}

// TestReadRecordRejectsNonMinimalHeader pins that a length header has
// one encoding, as every snapshot varint does.
func TestReadRecordRejectsNonMinimalHeader(t *testing.T) {
	frame := AppendRecord(nil, []byte("hello"))
	padded := append([]byte{frame[0] | 0x80, 0x00}, frame[1:]...)
	if _, err := ReadRecord(bufio.NewReader(bytes.NewReader(padded)), MaxRecord, nil); !errors.Is(err, ErrTornRecord) {
		t.Fatalf("padded header: %v, want ErrTornRecord", err)
	}
	if _, err := RecordPayload(padded); !errors.Is(err, ErrTornRecord) {
		t.Fatalf("RecordPayload of a padded header: %v, want ErrTornRecord", err)
	}
}

// stalled yields its bytes, then fails every read with err.
type stalled struct {
	b   []byte
	err error
}

func (s *stalled) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, s.err
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

// TestReadRecordPassesReadErrors pins that a read error other than the
// end of input — here a deadline, wherever in the frame it strikes —
// reaches the caller as it is, so a timeout stays a timeout.
func TestReadRecordPassesReadErrors(t *testing.T) {
	frame := AppendRecord(nil, []byte("payload under test"))
	for cut := 0; cut < len(frame); cut++ {
		r := bufio.NewReader(&stalled{b: frame[:cut], err: os.ErrDeadlineExceeded})
		_, err := ReadRecord(r, MaxRecord, nil)
		if err != os.ErrDeadlineExceeded {
			t.Fatalf("cut %d: %v, want the deadline error unwrapped", cut, err)
		}
	}
}

// TestReadRecordReusesBuffer pins that a reader passing its previous
// payload back reads the next record into the same storage.
func TestReadRecordReusesBuffer(t *testing.T) {
	stream := AppendRecord(AppendRecord(nil, []byte("first record")), []byte("second"))
	br := bufio.NewReader(bytes.NewReader(stream))
	first, err := ReadRecord(br, MaxRecord, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ReadRecord(br, MaxRecord, first)
	if err != nil {
		t.Fatal(err)
	}
	if string(second) != "second" || &second[0] != &first[0] {
		t.Fatalf("second record %q read into fresh storage", second)
	}
}

// TestRecordPayload pins the in-memory frame check the epoch log uses
// for At and Replay: the payload aliases the frame, and a frame whose
// header does not account for every byte, or whose CRC is wrong, fails.
func TestRecordPayload(t *testing.T) {
	frame := AppendRecord(nil, []byte("payload under test"))
	payload, err := RecordPayload(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "payload under test" || &payload[0] != &frame[1] {
		t.Fatalf("payload %q does not alias the frame", payload)
	}
	if got := RecordLen(len(payload)); got != int64(len(frame)) {
		t.Fatalf("RecordLen(%d) = %d, frame is %d bytes", len(payload), got, len(frame))
	}
	for _, bad := range [][]byte{frame[:len(frame)-1], append(append([]byte(nil), frame...), 0), {}} {
		if _, err := RecordPayload(bad); !errors.Is(err, ErrTornRecord) {
			t.Fatalf("%d-byte frame: %v, want ErrTornRecord", len(bad), err)
		}
	}
	for i := range frame {
		mutated := append([]byte(nil), frame...)
		mutated[i] ^= 0x40
		if _, err := RecordPayload(mutated); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

// TestWriteRecordMatchesAppendRecord pins that a frame written from a
// head and a body is the frame of their concatenation.
func TestWriteRecordMatchesAppendRecord(t *testing.T) {
	for _, body := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{7}, 300)} {
		head := []byte{1, 'g', 9}
		var w bytes.Buffer
		n, err := WriteRecord(&w, head, body)
		if err != nil {
			t.Fatal(err)
		}
		want := AppendRecord(nil, append(append([]byte(nil), head...), body...))
		if !bytes.Equal(w.Bytes(), want) || n != int64(len(want)) {
			t.Fatalf("%d-byte body: wrote %d bytes (reported %d), want %d", len(body), w.Len(), n, len(want))
		}
	}
}
