package convergecast

import (
	"testing"
	"unsafe"
)

// TestRecordSize pins the padding-free record both decoders relay and
// every fragment root holds: 32 bytes, two identifiers, the advice
// pointer, its offset and the child count. The stream tests, which drive the
// convergecast through the Theorem 3 decoder's windows, are the
// TestSubtree* tests in internal/core; the local-decompression decoder's
// fragment roots are held to the oracle's BFS order by
// TestHierRootCollection in internal/hier.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Rec{}); got != 32 {
		t.Errorf("sizeof(Rec) = %d, want 32", got)
	}
}
