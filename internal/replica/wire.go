package replica

import (
	"encoding/binary"

	"mstadvice/internal/store"
)

// Wire protocol (DESIGN.md §2.10): every frame on a connection is one
// store.AppendRecord/ReadRecord record — varint length, payload, CRC32 —
// so a connection a fault (or the chaos proxy) truncates or corrupts
// mid-frame fails loudly at the codec instead of desynchronizing the
// stream. Request payloads start with an opcode byte:
//
//	opAdvice  id, node            → ok: epoch, bit length, packed bits
//	opTier    id, level           → ok: level, epoch, flat v2 snapshot blob
//	opInfo    id                  → ok: epoch, n, m, tier-only flag
//	opTail    after               → unbounded stream of epoch records
//	                                (same payload layout as the log)
//
// Reply payloads start with a status byte: rOK then the op-specific
// fields, or rErr then an error code and message. Every field is read
// with a store.Cursor: integers are minimal unsigned LEB128 varints,
// strings a varint length and at most store.MaxString bytes
// (store.AppendString), and advice bits are packed by store.AppendBits,
// the layout of the snapshot's advice section.

const (
	opAdvice = byte(1)
	opTier   = byte(2)
	opInfo   = byte(3)
	opTail   = byte(4)
)

const (
	rOK  = byte(0)
	rErr = byte(1)
)

// Wire error codes. The client's failover policy keys off them:
// not-found and degraded answers may be endpoint-local (a lagging or
// memory-pressured replica), so other endpoints are tried; bad requests
// are permanent and returned immediately.
const (
	codeNotFound = 1 // unknown graph or tier on this endpoint
	codeDegraded = 2 // endpoint serves only coarse tiers (memory pressure)
	codeBad      = 3 // malformed or out-of-range request
)

// maxRequest bounds a request frame's payload: an opcode, one graph ID
// and one varint.
const maxRequest = 1 + binary.MaxVarintLen64 + store.MaxString + binary.MaxVarintLen64

// errReply builds an rErr reply, cutting msg to the string bound so the
// client can always read it.
func errReply(code uint64, msg string) []byte {
	buf := binary.AppendUvarint([]byte{rErr}, code)
	return store.AppendString(buf, msg[:min(len(msg), store.MaxString)])
}

// parseErr reads an rErr reply's body: the code, then the message.
func parseErr(body []byte) (*wireErr, error) {
	cur := store.NewCursor(body)
	code, err := cur.Uvarint("error code")
	if err != nil {
		return nil, err
	}
	msg, err := cur.String("error message", store.MaxString)
	if err != nil {
		return nil, err
	}
	return &wireErr{code: code, msg: msg}, nil
}
