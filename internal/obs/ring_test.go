package obs

import (
	"fmt"
	"reflect"
	"testing"
)

// refRing is the reference the grow-on-demand ring must match: a ring
// preallocated to its full capacity, which overwrites slot (s-1) % c with
// event s and reads back the last min(n, c) events in order.
type refRing struct {
	slots []Event
	seq   uint64
}

func (r *refRing) push(ev Event) {
	r.seq++
	ev.Seq = r.seq
	r.slots[(r.seq-1)%uint64(len(r.slots))] = ev
}

func (r *refRing) events() []Event {
	c := uint64(len(r.slots))
	first := uint64(1)
	if r.seq > c {
		first = r.seq - c + 1
	}
	var out []Event
	for s := first; s <= r.seq; s++ {
		out = append(out, r.slots[(s-1)%c])
	}
	return out
}

// TestRingMatchesPreallocatedReference: for every capacity and event
// count around the wrap points, the recorder's ring yields the same
// Events, sequence numbers and DroppedEvents as a preallocated ring —
// from construction and again after a Reset and refill.
func TestRingMatchesPreallocatedReference(t *testing.T) {
	for _, c := range []int{1, 4, DefaultCapacity} {
		for _, n := range []int{0, c - 1, c, c + 1, 3*c + 2} {
			t.Run(fmt.Sprintf("cap=%d/n=%d", c, n), func(t *testing.T) {
				r := NewRecorder(c)
				for round := 0; round < 2; round++ {
					ref := &refRing{slots: make([]Event, c)}
					for i := 0; i < n; i++ {
						ev := Event{Kind: EvInvoke, Comp: int32(1 + i%3), Time: int64(i), Fn: "fn"}
						r.Record(ev)
						ref.push(ev)
					}
					snap := r.Snapshot()
					if want := ref.events(); !reflect.DeepEqual(snap.Events, want) {
						t.Fatalf("round %d: ring holds %d events (first %v), reference %d (first %v)",
							round, len(snap.Events), head(snap.Events), len(want), head(want))
					}
					if snap.TotalEvents != ref.seq {
						t.Errorf("round %d: TotalEvents = %d, want %d", round, snap.TotalEvents, ref.seq)
					}
					if want := ref.seq - uint64(len(ref.events())); snap.DroppedEvents != want {
						t.Errorf("round %d: DroppedEvents = %d, want %d", round, snap.DroppedEvents, want)
					}
					r.Reset()
				}
			})
		}
	}
}

// head returns the first event of evs, for failure messages.
func head(evs []Event) any {
	if len(evs) == 0 {
		return nil
	}
	return evs[0]
}
