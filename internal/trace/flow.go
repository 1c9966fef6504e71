package trace

import (
	"fmt"
	"strings"
)

// FlowLog records the interaction and control flow between the three
// abstraction layers of Fig. 2/Fig. 5 — runtime, middleware/HLS,
// hardware — as timestamped events. It is attached optionally to the
// runtime scheduler, the UNILOGIC domain and the accelerator managers;
// cmd/ecosim -flowtrace prints it, reproducing Fig. 5 as a sequence
// listing.
type FlowLog struct {
	events  []FlowEvent
	dropped uint64
	// Cap bounds retained events (0 = unbounded).
	Cap int
	// Reg, when non-nil, receives a FlowDropsCounter increment for every
	// event discarded at the cap, so -metrics reports the truncation.
	Reg *Registry
}

// FlowDropsCounter is the registry counter incremented when a FlowLog
// discards an event because its cap was reached.
const FlowDropsCounter = "trace.flow.drops"

// FlowEvent is one layer-interaction step.
type FlowEvent struct {
	AtPs  int64 // simulated picoseconds
	Layer string
	Event string
}

// NewFlowLog returns an empty log retaining up to cap events.
func NewFlowLog(cap int) *FlowLog { return &FlowLog{Cap: cap} }

// Add appends an event. It is a no-op on a nil log, but call sites
// guard it with a nil check anyway: the variadic arguments are boxed
// before the call, so an unguarded call allocates even when the log is
// off.
func (l *FlowLog) Add(atPs int64, layer, format string, args ...any) {
	if l == nil {
		return
	}
	if l.Cap > 0 && len(l.events) >= l.Cap {
		l.dropped++
		if l.Reg != nil {
			l.Reg.Counter(FlowDropsCounter).Inc()
		}
		return
	}
	l.events = append(l.events, FlowEvent{AtPs: atPs, Layer: layer, Event: fmt.Sprintf(format, args...)})
}

// Dropped returns how many events were discarded because Cap was
// reached.
func (l *FlowLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Events returns the recorded events in order.
func (l *FlowLog) Events() []FlowEvent {
	if l == nil {
		return nil
	}
	return l.events
}

// Len returns the event count.
func (l *FlowLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// String renders the Fig. 5-style sequence listing.
func (l *FlowLog) String() string {
	var b strings.Builder
	b.WriteString("== layer interaction flow (Fig. 5) ==\n")
	for _, e := range l.Events() {
		us := float64(e.AtPs) / 1e6
		fmt.Fprintf(&b, "%12.3fus  %-12s %s\n", us, e.Layer, e.Event)
	}
	if n := l.Dropped(); n > 0 {
		fmt.Fprintf(&b, "(%d later events dropped at cap %d)\n", n, l.Cap)
	}
	return b.String()
}
