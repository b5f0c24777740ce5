//go:build sgcstubs

// §V-B workloads implemented over the sgc-generated stubs, so
// fault-injection campaigns run against the generated code and can be
// compared with the spec-interpreting runtime.

package gen

import (
	"errors"
	"fmt"

	"superglue/internal/core"
	"superglue/internal/gen/genevent"
	"superglue/internal/gen/genlock"
	"superglue/internal/gen/genrt"
	"superglue/internal/kernel"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/workload"
)

// LockWorkload is the lock benchmark of §V-B driven through the generated
// genlock stub.
type LockWorkload struct {
	iters    int
	inCS     int
	csErr    error
	owners   int
	contends int
	runErr   []error
}

var _ workload.Workload = (*LockWorkload)(nil)

// NewLockWorkload builds a generated-stub lock workload.
func NewLockWorkload(iters int) workload.Workload {
	return &LockWorkload{iters: iters}
}

// Name implements workload.Workload.
func (w *LockWorkload) Name() string { return "gen-lock" }

// Target implements workload.Workload.
func (w *LockWorkload) Target() string { return "lock" }

// Build implements workload.Workload.
func (w *LockWorkload) Build(sys *core.System) (kernel.ComponentID, error) {
	comp, err := lock.Register(sys)
	if err != nil {
		return 0, err
	}
	host, err := genrt.NewHost(sys, "gen-lock-app")
	if err != nil {
		return 0, err
	}
	st, err := genlock.NewClientStub(host, comp)
	if err != nil {
		return 0, err
	}
	k := sys.Kernel()
	self := kernel.Word(host.ID())
	fail := func(err error) { w.runErr = append(w.runErr, err) }

	var id kernel.Word
	ready := false
	critical := func(t *kernel.Thread, owner bool) error {
		tid := kernel.Word(t.ID())
		if _, err := st.LockTake(t, self, id, tid); err != nil {
			return fmt.Errorf("take: %w", err)
		}
		w.inCS++
		if w.inCS != 1 && w.csErr == nil {
			w.csErr = fmt.Errorf("mutual exclusion violated: %d in critical section", w.inCS)
		}
		if err := k.Yield(t); err != nil {
			w.inCS--
			return err
		}
		w.inCS--
		if owner {
			w.owners++
		} else {
			w.contends++
		}
		if _, err := st.LockRelease(t, self, id, tid); err != nil {
			return fmt.Errorf("release: %w", err)
		}
		return nil
	}
	if _, err := k.CreateThread(nil, "owner", 10, func(t *kernel.Thread) {
		lid, err := st.LockAlloc(t, self)
		if err != nil {
			fail(fmt.Errorf("alloc: %w", err))
			return
		}
		id = lid
		ready = true
		for i := 0; i < w.iters; i++ {
			if err := critical(t, true); err != nil {
				fail(err)
				return
			}
			if err := k.Yield(t); err != nil {
				fail(err)
				return
			}
		}
	}); err != nil {
		return 0, err
	}
	if _, err := k.CreateThread(nil, "contender", 10, func(t *kernel.Thread) {
		if !ready {
			if err := k.Yield(t); err != nil {
				fail(err)
				return
			}
		}
		for i := 0; i < w.iters; i++ {
			if err := critical(t, false); err != nil {
				fail(err)
				return
			}
			if err := k.Yield(t); err != nil {
				fail(err)
				return
			}
		}
	}); err != nil {
		return 0, err
	}
	return comp, nil
}

// Check implements workload.Workload.
func (w *LockWorkload) Check() error {
	if len(w.runErr) > 0 {
		return fmt.Errorf("gen-lock workload errors: %w", errors.Join(w.runErr...))
	}
	if w.csErr != nil {
		return w.csErr
	}
	if w.owners != w.iters || w.contends != w.iters {
		return fmt.Errorf("gen-lock incomplete: owner %d/%d contender %d/%d",
			w.owners, w.iters, w.contends, w.iters)
	}
	return nil
}

// EventWorkload is the event benchmark of §V-B driven through the generated
// genevent stub, with the trigger arriving from a second component.
type EventWorkload struct {
	iters    int
	waits    int
	triggers int
	runErr   []error
}

var _ workload.Workload = (*EventWorkload)(nil)

// NewEventWorkload builds a generated-stub event workload.
func NewEventWorkload(iters int) workload.Workload {
	return &EventWorkload{iters: iters}
}

// Name implements workload.Workload.
func (w *EventWorkload) Name() string { return "gen-event" }

// Target implements workload.Workload.
func (w *EventWorkload) Target() string { return "event" }

// Build implements workload.Workload.
func (w *EventWorkload) Build(sys *core.System) (kernel.ComponentID, error) {
	comp, err := event.Register(sys)
	if err != nil {
		return 0, err
	}
	waiterHost, err := genrt.NewHost(sys, "gen-evt-waiter")
	if err != nil {
		return 0, err
	}
	waiter, err := genevent.NewClientStub(waiterHost, comp)
	if err != nil {
		return 0, err
	}
	trigHost, err := genrt.NewHost(sys, "gen-evt-trigger")
	if err != nil {
		return 0, err
	}
	trig, err := genevent.NewClientStub(trigHost, comp)
	if err != nil {
		return 0, err
	}
	k := sys.Kernel()
	fail := func(err error) { w.runErr = append(w.runErr, err) }

	var evt kernel.Word
	ready := false
	if _, err := k.CreateThread(nil, "waiter", 9, func(t *kernel.Thread) {
		id, err := waiter.EvtSplit(t, kernel.Word(waiterHost.ID()), 0, 0)
		if err != nil {
			fail(fmt.Errorf("split: %w", err))
			return
		}
		evt = id
		ready = true
		for i := 0; i < w.iters; i++ {
			if _, err := waiter.EvtWait(t, kernel.Word(waiterHost.ID()), evt); err != nil {
				fail(fmt.Errorf("wait %d: %w", i, err))
				return
			}
			w.waits++
		}
		if _, err := waiter.EvtFree(t, kernel.Word(waiterHost.ID()), evt); err != nil {
			fail(fmt.Errorf("free: %w", err))
		}
	}); err != nil {
		return 0, err
	}
	if _, err := k.CreateThread(nil, "trigger", 10, func(t *kernel.Thread) {
		for !ready {
			if err := k.Yield(t); err != nil {
				fail(err)
				return
			}
		}
		for i := 0; i < w.iters; i++ {
			if _, err := trig.EvtTrigger(t, kernel.Word(trigHost.ID()), evt); err != nil {
				fail(fmt.Errorf("trigger %d: %w", i, err))
				return
			}
			w.triggers++
		}
	}); err != nil {
		return 0, err
	}
	return comp, nil
}

// Check implements workload.Workload.
func (w *EventWorkload) Check() error {
	if len(w.runErr) > 0 {
		return fmt.Errorf("gen-event workload errors: %w", errors.Join(w.runErr...))
	}
	if w.waits != w.iters || w.triggers != w.iters {
		return fmt.Errorf("gen-event incomplete: %d/%d waits, %d/%d triggers",
			w.waits, w.iters, w.triggers, w.iters)
	}
	return nil
}
