package core

import (
	"errors"
	"fmt"
	"testing"

	"superglue/internal/kernel"
)

// fakeLock is a minimal lock server used to exercise the generic stubs:
// server-assigned descriptor IDs, blocking, holds.
type fakeLock struct {
	k      *kernel.Kernel
	next   kernel.Word
	locks  map[kernel.Word]*fakeLockState
	inited int
}

type fakeLockState struct {
	holder  kernel.ThreadID
	waiters []kernel.ThreadID
}

func newFakeLock() kernel.Service { return &fakeLock{} }

func (f *fakeLock) Name() string { return "lock" }

func (f *fakeLock) Init(bc *kernel.BootContext) error {
	f.k = bc.Kernel
	f.locks = make(map[kernel.Word]*fakeLockState)
	// Server-assigned IDs restart from a fresh namespace each epoch so that
	// recovered descriptors genuinely receive new IDs.
	f.next = kernel.Word(bc.Epoch) * 1000
	f.inited++
	return nil
}

func (f *fakeLock) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	switch fn {
	case "lock_alloc":
		f.next++
		f.locks[f.next] = &fakeLockState{}
		return f.next, nil
	case "lock_take":
		l, ok := f.locks[args[1]]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		for l.holder != 0 && l.holder != t.ID() {
			l.waiters = append(l.waiters, t.ID())
			if err := f.k.Block(t); err != nil {
				return 0, err
			}
			l, ok = f.locks[args[1]]
			if !ok {
				return 0, kernel.ErrInvalidDescriptor
			}
		}
		l.holder = t.ID()
		return 0, nil
	case "lock_release":
		l, ok := f.locks[args[1]]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		if l.holder != t.ID() {
			return 0, fmt.Errorf("lock: release by non-holder %d (holder %d)", t.ID(), l.holder)
		}
		l.holder = 0
		for _, w := range l.waiters {
			if err := f.k.Wakeup(t, w); err != nil {
				return 0, err
			}
		}
		l.waiters = nil
		return 0, nil
	case "lock_free":
		if _, ok := f.locks[args[0]]; !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		delete(f.locks, args[0])
		return 0, nil
	default:
		return 0, kernel.DispatchError("lock", fn)
	}
}

// fakeEvt is a global-descriptor event server: IDs are shared across
// clients, recovery needs G0/U0 through the storage component.
type fakeEvt struct {
	k    *kernel.Kernel
	next kernel.Word
	evts map[kernel.Word][]kernel.ThreadID // waiters
}

func newFakeEvt() kernel.Service { return &fakeEvt{} }

func (f *fakeEvt) Name() string { return "event" }

func (f *fakeEvt) Init(bc *kernel.BootContext) error {
	f.k = bc.Kernel
	f.evts = make(map[kernel.Word][]kernel.ThreadID)
	f.next = kernel.Word(bc.Epoch) * 1000
	return nil
}

func (f *fakeEvt) Dispatch(t *kernel.Thread, fn string, args []kernel.Word) (kernel.Word, error) {
	switch fn {
	case "evt_split":
		f.next++
		f.evts[f.next] = nil
		return f.next, nil
	case "evt_wait":
		if _, ok := f.evts[args[1]]; !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		f.evts[args[1]] = append(f.evts[args[1]], t.ID())
		if err := f.k.Block(t); err != nil {
			return 0, err
		}
		return 1, nil
	case "evt_trigger":
		waiters, ok := f.evts[args[1]]
		if !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		f.evts[args[1]] = nil
		for _, w := range waiters {
			if err := f.k.Wakeup(t, w); err != nil {
				return 0, err
			}
		}
		return kernel.Word(len(waiters)), nil
	case "evt_free":
		if _, ok := f.evts[args[1]]; !ok {
			return 0, kernel.ErrInvalidDescriptor
		}
		delete(f.evts, args[1])
		return 0, nil
	default:
		return 0, kernel.DispatchError("event", fn)
	}
}

func evtSpec() *Spec {
	return &Spec{
		Service:         "event",
		DescHasParent:   ParentSame,
		DescIsGlobal:    true,
		DescBlock:       true,
		DescHasData:     true,
		DescCloseRemove: true,
		Funcs: []*FuncSpec{
			{Name: "evt_split", RetCType: "long", RetDescID: true, RetName: "evtid",
				Params: []ParamSpec{
					{CType: "componentid_t", Name: "compid", Role: RoleDescData},
					{CType: "long", Name: "parent_evtid", Role: RoleParentDesc},
					{CType: "int", Name: "grp", Role: RoleDescData},
				}},
			{Name: "evt_wait", Params: []ParamSpec{
				{CType: "componentid_t", Name: "compid", Role: RolePlain},
				{CType: "long", Name: "evtid", Role: RoleDesc}}},
			{Name: "evt_trigger", Params: []ParamSpec{
				{CType: "componentid_t", Name: "compid", Role: RolePlain},
				{CType: "long", Name: "evtid", Role: RoleDesc}}},
			{Name: "evt_free", Params: []ParamSpec{
				{CType: "componentid_t", Name: "compid", Role: RolePlain},
				{CType: "long", Name: "evtid", Role: RoleDesc}}},
		},
		Transitions: []Transition{
			{From: "evt_split", To: "evt_wait"},
			{From: "evt_wait", To: "evt_trigger"},
			{From: "evt_trigger", To: "evt_wait"},
			{From: "evt_trigger", To: "evt_free"},
			{From: "evt_split", To: "evt_free"},
			{From: "evt_wait", To: "evt_free"},
		},
		Creation: []string{"evt_split"},
		Terminal: []string{"evt_free"},
		Blocking: []string{"evt_wait"},
		Wakeup:   []string{"evt_trigger"},
		Reset:    []string{"evt_wait", "evt_trigger"},
	}
}

// testRig assembles a system with the fake lock and event servers and one
// client.
type testRig struct {
	sys  *System
	lock kernel.ComponentID
	evt  kernel.ComponentID
	cl   *Client
}

func newRig(t *testing.T, mode RecoveryMode) *testRig {
	t.Helper()
	sys, err := NewSystem(mode)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	lock, err := sys.RegisterServer(lockSpec(), newFakeLock)
	if err != nil {
		t.Fatalf("RegisterServer(lock): %v", err)
	}
	evt, err := sys.RegisterServer(evtSpec(), newFakeEvt)
	if err != nil {
		t.Fatalf("RegisterServer(event): %v", err)
	}
	cl, err := sys.NewClient("app")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return &testRig{sys: sys, lock: lock, evt: evt, cl: cl}
}

func (r *testRig) run(t *testing.T, body func(th *kernel.Thread, st *ClientStub)) {
	t.Helper()
	st, err := r.cl.Stub(r.lock)
	if err != nil {
		t.Fatalf("Stub: %v", err)
	}
	if _, err := r.sys.Kernel().CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		body(th, st)
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := r.sys.Kernel().Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestStubBasicCreateUseFree(t *testing.T) {
	r := newRig(t, OnDemand)
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		id, err := st.Call(th, "lock_alloc", kernel.Word(r.cl.ID()))
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if _, err := st.Call(th, "lock_take", 0, id); err != nil {
			t.Errorf("take: %v", err)
		}
		if _, err := st.Call(th, "lock_release", 0, id); err != nil {
			t.Errorf("release: %v", err)
		}
		if _, err := st.Call(th, "lock_free", id); err != nil {
			t.Errorf("free: %v", err)
		}
		if st.Tracked() != 0 {
			t.Errorf("tracked = %d after free; want 0", st.Tracked())
		}
	})
}

func TestStubRejectsUnknownFunction(t *testing.T) {
	r := newRig(t, OnDemand)
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		if _, err := st.Call(th, "lock_smash", 1); !errors.Is(err, ErrUnknownFunction) {
			t.Errorf("err = %v; want ErrUnknownFunction", err)
		}
	})
}

func TestStubRejectsWrongArity(t *testing.T) {
	r := newRig(t, OnDemand)
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		if _, err := st.Call(th, "lock_take", 1); err == nil {
			t.Error("short arg list accepted")
		}
	})
}

func TestStubRejectsUntrackedLocalDescriptor(t *testing.T) {
	r := newRig(t, OnDemand)
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		if _, err := st.Call(th, "lock_take", 0, 999); !errors.Is(err, ErrUnknownDescriptor) {
			t.Errorf("err = %v; want ErrUnknownDescriptor", err)
		}
	})
}

func TestStubDetectsInvalidTransition(t *testing.T) {
	r := newRig(t, OnDemand)
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		id, err := st.Call(th, "lock_alloc", 1)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		// Double alloc of same id impossible (server-assigned); but free
		// twice: second free hits closed/removed tracking.
		if _, err := st.Call(th, "lock_free", id); err != nil {
			t.Fatalf("free: %v", err)
		}
		if _, err := st.Call(th, "lock_free", id); !errors.Is(err, ErrUnknownDescriptor) {
			t.Errorf("double free err = %v; want ErrUnknownDescriptor", err)
		}
	})
}

func TestRecoveryAfterFaultBasic(t *testing.T) {
	r := newRig(t, OnDemand)
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		id, err := st.Call(th, "lock_alloc", 1)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		// Fail the component; the next call must transparently µ-reboot
		// and recover the descriptor.
		if err := r.sys.Kernel().FailComponent(r.lock); err != nil {
			t.Fatalf("FailComponent: %v", err)
		}
		if _, err := st.Call(th, "lock_take", 0, id); err != nil {
			t.Errorf("take after fault: %v", err)
		}
		if _, err := st.Call(th, "lock_release", 0, id); err != nil {
			t.Errorf("release after fault: %v", err)
		}
		m := st.Metrics()
		if m.Redos == 0 {
			t.Error("no redo recorded after fault")
		}
		if m.Recoveries == 0 {
			t.Error("no recovery recorded after fault")
		}
		d, ok := st.Descriptor(DescKey{ID: id})
		if !ok {
			t.Fatal("descriptor lost after recovery")
		}
		if d.ServerID == id {
			t.Error("server ID not refreshed (fresh epoch should assign new IDs)")
		}
	})
}

func TestRecoveryRestoresHeldLock(t *testing.T) {
	r := newRig(t, OnDemand)
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		id, err := st.Call(th, "lock_alloc", 1)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		if _, err := st.Call(th, "lock_take", 0, id); err != nil {
			t.Fatalf("take: %v", err)
		}
		if err := r.sys.Kernel().FailComponent(r.lock); err != nil {
			t.Fatalf("FailComponent: %v", err)
		}
		// Release after the fault: the stub must recover the descriptor,
		// re-acquire the lock on our behalf, then release. A naive replay
		// would make the server reject release-by-non-holder.
		if _, err := st.Call(th, "lock_release", 0, id); err != nil {
			t.Errorf("release after fault: %v", err)
		}
		if m := st.Metrics(); m.Recoveries == 0 || m.HoldReplays == 0 {
			t.Errorf("metrics = %+v; want a recovery with a hold replay", m)
		}
		if _, err := st.Call(th, "lock_free", id); err != nil {
			t.Errorf("free after recovered release: %v", err)
		}
		if n := st.Tracked(); n != 0 {
			t.Errorf("tracked descriptors after free = %d; want 0", n)
		}
	})
}

func TestBlockedThreadDivertedAndRedone(t *testing.T) {
	r := newRig(t, OnDemand)
	k := r.sys.Kernel()
	st, err := r.cl.Stub(r.lock)
	if err != nil {
		t.Fatalf("Stub: %v", err)
	}
	var id kernel.Word
	var waitErr error
	done := false
	if _, err := k.CreateThread(nil, "setup", 5, func(th *kernel.Thread) {
		id, err = st.Call(th, "lock_alloc", 1)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if _, err := st.Call(th, "lock_take", 0, id); err != nil {
			t.Errorf("take: %v", err)
		}
		// Let the waiter run and block, then fail + reboot the server.
		if err := k.Yield(th); err != nil {
			t.Errorf("yield: %v", err)
		}
		if err := k.FailComponent(r.lock); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		if _, err := k.Reboot(th, r.lock); err != nil {
			t.Errorf("Reboot: %v", err)
		}
		// Release so the waiter can finish (it re-contends on redo).
		if _, err := st.Call(th, "lock_release", 0, id); err != nil {
			t.Errorf("release: %v", err)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if _, err := k.CreateThread(nil, "waiter", 5, func(th *kernel.Thread) {
		_, waitErr = st.Call(th, "lock_take", 0, id)
		done = true
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if waitErr != nil {
		t.Fatalf("waiter's take = %v; want transparent recovery", waitErr)
	}
	if !done {
		t.Fatal("waiter never completed")
	}
}

func TestGlobalDescriptorRecoveredViaStorageUpcall(t *testing.T) {
	r := newRig(t, OnDemand)
	k := r.sys.Kernel()
	creator, err := r.cl.Stub(r.evt)
	if err != nil {
		t.Fatalf("Stub: %v", err)
	}
	other, err := r.sys.NewClient("other")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	otherStub, err := other.Stub(r.evt)
	if err != nil {
		t.Fatalf("Stub(other): %v", err)
	}
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		id, err := creator.Call(th, "evt_split", kernel.Word(r.cl.ID()), 0, 0)
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		// Another component triggers the same (global) event: untracked in
		// its stub, passes through.
		if _, err := otherStub.Call(th, "evt_trigger", kernel.Word(other.ID()), id); err != nil {
			t.Errorf("trigger pre-fault: %v", err)
			return
		}
		// Fail + reboot; the creator does NOT touch the event. The other
		// component's next trigger must be recovered server-side via the
		// storage component's creator record and an upcall (G0 + U0).
		if err := k.FailComponent(r.evt); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		if _, err := k.Reboot(th, r.evt); err != nil {
			t.Errorf("Reboot: %v", err)
		}
		if _, err := otherStub.Call(th, "evt_trigger", kernel.Word(other.ID()), id); err != nil {
			t.Errorf("trigger post-fault (G0 path): %v", err)
		}
		// The creator's tracked descriptor must have been recovered by the
		// upcall, with a fresh server ID remapped in storage.
		d, ok := creator.Descriptor(DescKey{ID: id})
		if !ok {
			t.Error("creator lost descriptor")
			return
		}
		if d.ServerID == id {
			t.Error("descriptor not recreated with a fresh server ID")
		}
		class, _ := r.sys.Class(r.evt)
		if got := r.sys.Store().Resolve(class, id); got != d.ServerID {
			t.Errorf("storage resolve(%d) = %d; want %d", id, got, d.ServerID)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestParentRecoveredBeforeChild(t *testing.T) {
	r := newRig(t, OnDemand)
	k := r.sys.Kernel()
	st, err := r.cl.Stub(r.evt)
	if err != nil {
		t.Fatalf("Stub: %v", err)
	}
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		parent, err := st.Call(th, "evt_split", 1, 0, 0)
		if err != nil {
			t.Errorf("split parent: %v", err)
			return
		}
		child, err := st.Call(th, "evt_split", 1, parent, 1)
		if err != nil {
			t.Errorf("split child: %v", err)
			return
		}
		if err := k.FailComponent(r.evt); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		// Using the child forces recovery of the parent first (D1).
		if _, err := st.Call(th, "evt_trigger", 1, child); err != nil {
			t.Errorf("trigger child after fault: %v", err)
		}
		pd, ok := st.Descriptor(DescKey{ID: parent})
		if !ok {
			t.Error("parent descriptor missing")
			return
		}
		cd, _ := st.Descriptor(DescKey{ID: child})
		cur, _ := k.Epoch(r.evt)
		if pd.Epoch != cur {
			t.Errorf("parent epoch = %d; want %d (parent must be recovered first)", pd.Epoch, cur)
		}
		if cd.Parent != pd {
			t.Error("child lost its parent link")
		}
		if m := st.Metrics(); m.WalkSteps < 2 {
			t.Errorf("walk steps = %d; want ≥ 2 (parent then child)", m.WalkSteps)
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEagerModeRecoversAllOnReboot(t *testing.T) {
	r := newRig(t, Eager)
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		var ids []kernel.Word
		for i := 0; i < 4; i++ {
			id, err := st.Call(th, "lock_alloc", 1)
			if err != nil {
				t.Fatalf("alloc: %v", err)
			}
			ids = append(ids, id)
		}
		if err := r.sys.Kernel().FailComponent(r.lock); err != nil {
			t.Fatalf("FailComponent: %v", err)
		}
		if _, err := r.sys.Kernel().Reboot(th, r.lock); err != nil {
			t.Fatalf("Reboot: %v", err)
		}
		cur, _ := r.sys.Kernel().Epoch(r.lock)
		for _, id := range ids {
			d, ok := st.Descriptor(DescKey{ID: id})
			if !ok {
				t.Fatalf("descriptor %d lost", id)
			}
			if d.Epoch != cur {
				t.Errorf("descriptor %d epoch = %d; want %d (eager recovery)", id, d.Epoch, cur)
			}
		}
		if st.Metrics().Recoveries != 4 {
			t.Errorf("recoveries = %d; want 4", st.Metrics().Recoveries)
		}
	})
}

func TestTerminalRemovesCreatorRecord(t *testing.T) {
	r := newRig(t, OnDemand)
	k := r.sys.Kernel()
	st, err := r.cl.Stub(r.evt)
	if err != nil {
		t.Fatalf("Stub: %v", err)
	}
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		id, err := st.Call(th, "evt_split", 1, 0, 0)
		if err != nil {
			t.Errorf("split: %v", err)
			return
		}
		class, _ := r.sys.Class(r.evt)
		if _, ok := r.sys.Store().LookupCreator(class, id); !ok {
			t.Error("creator record missing after split")
		}
		if _, err := st.Call(th, "evt_free", 1, id); err != nil {
			t.Errorf("free: %v", err)
		}
		if _, ok := r.sys.Store().LookupCreator(class, id); ok {
			t.Error("creator record not removed after free")
		}
	}); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDoubleFaultDuringRecovery(t *testing.T) {
	r := newRig(t, OnDemand)
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		id, err := st.Call(th, "lock_alloc", 1)
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		// First fault.
		if err := r.sys.Kernel().FailComponent(r.lock); err != nil {
			t.Fatalf("FailComponent: %v", err)
		}
		// Inject a second fault the moment the recovery walk re-enters the
		// server, via the invocation hook.
		injected := false
		r.sys.Kernel().SetInvokeHook(func(ht *kernel.Thread, comp kernel.ComponentID, fn string, phase kernel.InvokePhase) {
			if comp == r.lock && fn == "lock_alloc" && phase == kernel.PhaseEntry && !injected {
				injected = true
				if err := r.sys.Kernel().FailComponent(r.lock); err != nil {
					t.Errorf("FailComponent (second): %v", err)
				}
			}
		})
		if _, err := st.Call(th, "lock_take", 0, id); err != nil {
			t.Errorf("take after double fault: %v", err)
		}
		if !injected {
			t.Error("second fault never injected")
		}
	})
}

func TestSystemRejectsUnknownMode(t *testing.T) {
	if _, err := NewSystem(RecoveryMode(99)); err == nil {
		t.Fatal("NewSystem accepted invalid mode")
	}
}

func TestClientUpcallHandlerRouting(t *testing.T) {
	r := newRig(t, OnDemand)
	r.cl.Handle("app.ping", func(t *kernel.Thread, args []kernel.Word) (kernel.Word, error) {
		return args[0] * 2, nil
	})
	r.run(t, func(th *kernel.Thread, st *ClientStub) {
		v, err := r.sys.Kernel().Upcall(th, r.cl.ID(), "app.ping", 21)
		if err != nil || v != 42 {
			t.Errorf("upcall = (%d, %v); want (42, nil)", v, err)
		}
		if _, err := r.sys.Kernel().Upcall(th, r.cl.ID(), "app.nope"); err == nil {
			t.Error("unknown upcall accepted")
		}
	})
}

func TestServerByNameAndSpecLookups(t *testing.T) {
	r := newRig(t, OnDemand)
	if id, ok := r.sys.ServerByName("lock"); !ok || id != r.lock {
		t.Fatalf("ServerByName(lock) = (%d, %v); want (%d, true)", id, ok, r.lock)
	}
	if _, ok := r.sys.ServerByName("nope"); ok {
		t.Fatal("ServerByName(nope) found something")
	}
	if sp, ok := r.sys.ServerSpec(r.evt); !ok || sp.Service != "event" {
		t.Fatalf("ServerSpec = (%v, %v)", sp, ok)
	}
	if _, ok := r.sys.Class(kernel.ComponentID(99)); ok {
		t.Fatal("Class of unknown component found")
	}
}

func TestDuplicateServerRejected(t *testing.T) {
	r := newRig(t, OnDemand)
	if _, err := r.sys.RegisterServer(lockSpec(), newFakeLock); err == nil {
		t.Fatal("duplicate server registration accepted")
	}
}
