package sim

import (
	"testing"
	"unsafe"
)

// TestHeapEntryLayout pins the priority-queue element at 24 bytes. A wider
// entry (one extra ordering key took it to 32 once) grows every sift and
// makes push too large for the compiler to inline, which slows every event
// of every simulation. `make inline-check`, part of `make check`, fails
// when push no longer inlines.
func TestHeapEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(heapEntry{}); got != 24 {
		t.Fatalf("heapEntry is %d bytes, want 24", got)
	}
}
