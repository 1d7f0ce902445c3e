package soundness

import (
	"fmt"
	"strings"
)

// Event is one recorded pipeline event: the same vocabulary as the
// pipeline trace (FE fetch, DI dispatch, IS issue, RJ reject, CP complete,
// CM commit, SQH squash, RPL replay, REC recovery, FLT injected fault),
// kept as pre-rendered strings so recording never retains simulator state.
type Event struct {
	Cycle uint64
	Kind  string
	Age   uint64
	Inst  string // rendered instruction, empty for global marks
	Extra string
}

// String renders the event as one trace line.
func (ev Event) String() string {
	s := fmt.Sprintf("cyc=%-8d %-3s", ev.Cycle, ev.Kind)
	if ev.Inst != "" {
		s += fmt.Sprintf(" age=%-6d %s", ev.Age, ev.Inst)
	}
	if ev.Extra != "" {
		s += " " + ev.Extra
	}
	return s
}

// EventRing is a fixed-capacity ring buffer of the most recent pipeline
// events, attached to error reports so a divergence arrives with its
// immediate history. The zero value is unusable; use NewEventRing.
type EventRing struct {
	buf  []Event
	next int
	full bool
}

// DefaultRingSize is the event window attached to soundness errors.
const DefaultRingSize = 64

// NewEventRing builds a ring holding the last n events (n < 1 uses the
// default size).
func NewEventRing(n int) *EventRing {
	if n < 1 {
		n = DefaultRingSize
	}
	return &EventRing{buf: make([]Event, n)}
}

// Record appends an event, evicting the oldest once full.
func (r *EventRing) Record(ev Event) {
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Snapshot returns the buffered events oldest-first. The slice is a copy;
// mutating it does not affect the ring.
func (r *EventRing) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}

// FormatEvents renders events one per line, oldest first.
func FormatEvents(evs []Event) string {
	var b strings.Builder
	for _, ev := range evs {
		b.WriteString("  ")
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}
