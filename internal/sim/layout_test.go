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

// TestCallbackLayout pins the two cells that store a callback, the
// event arena's eventSlot and the Resource/Signal waiter, at 32 bytes
// each. Both hold the one callback form, fn(arg); a second, closure-only
// field would add 8 bytes to every arena slot and every waiter-ring cell,
// the memory each scheduled event and each parked Acquire costs.
func TestCallbackLayout(t *testing.T) {
	if got := unsafe.Sizeof(eventSlot{}); got != 32 {
		t.Errorf("eventSlot is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(waiter{}); got != 32 {
		t.Errorf("waiter is %d bytes, want 32", got)
	}
}
