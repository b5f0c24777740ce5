package mm

import (
	"testing"

	"superglue/internal/core"
	"superglue/internal/kernel"
)

type rig struct {
	sys   *core.System
	comp  kernel.ComponentID
	owner *core.Client
	peer  *core.Client
	c     *Client
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	comp, err := Register(sys)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	owner, err := sys.NewClient("owner")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	peer, err := sys.NewClient("peer")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	c, err := NewClient(owner, comp)
	if err != nil {
		t.Fatalf("NewClient(mm): %v", err)
	}
	return &rig{sys: sys, comp: comp, owner: owner, peer: peer, c: c}
}

func (r *rig) server(t *testing.T) *Server {
	t.Helper()
	svc, err := r.sys.Kernel().Service(r.comp)
	if err != nil {
		t.Fatalf("Service: %v", err)
	}
	type innerer interface{ Inner() kernel.Service }
	return svc.(innerer).Inner().(*Server)
}

func (r *rig) run(t *testing.T, body func(th *kernel.Thread)) {
	t.Helper()
	if _, err := r.sys.Kernel().CreateThread(nil, "main", 10, body); err != nil {
		t.Fatalf("CreateThread: %v", err)
	}
	if err := r.sys.Kernel().Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSpecMechanisms(t *testing.T) {
	spec, err := Spec()
	if err != nil {
		t.Fatalf("Spec: %v", err)
	}
	for _, m := range []core.Mechanism{core.MechR0, core.MechT1, core.MechD0, core.MechD1} {
		if !spec.HasMechanism(m) {
			t.Errorf("mechanism %v missing; got %v", m, spec.Mechanisms())
		}
	}
	if spec.HasMechanism(core.MechT0) {
		t.Error("MM should not need T0 (no blocking)")
	}
	if spec.DescHasParent != core.ParentXC {
		t.Errorf("DescHasParent = %v; want XCParent", spec.DescHasParent)
	}
}

func TestGetAliasShareFrame(t *testing.T) {
	r := newRig(t)
	r.run(t, func(th *kernel.Thread) {
		if _, err := r.c.GetPage(th, 0x1000); err != nil {
			t.Errorf("GetPage: %v", err)
			return
		}
		if _, err := r.c.AliasPage(th, 0x1000, r.peer.ID(), 0x2000); err != nil {
			t.Errorf("AliasPage: %v", err)
			return
		}
		srv := r.server(t)
		f1, ok1 := srv.Frame(kernel.Word(r.owner.ID()), 0x1000)
		f2, ok2 := srv.Frame(kernel.Word(r.peer.ID()), 0x2000)
		if !ok1 || !ok2 || f1 != f2 {
			t.Errorf("frames = (%d,%v) vs (%d,%v); want shared", f1, ok1, f2, ok2)
		}
	})
}

func TestReleaseRevokesSubtree(t *testing.T) {
	r := newRig(t)
	r.run(t, func(th *kernel.Thread) {
		if _, err := r.c.GetPage(th, 0x1000); err != nil {
			t.Errorf("GetPage: %v", err)
			return
		}
		if _, err := r.c.AliasPage(th, 0x1000, r.peer.ID(), 0x2000); err != nil {
			t.Errorf("AliasPage: %v", err)
			return
		}
		if _, err := r.c.AliasFrom(th, r.peer.ID(), 0x2000, r.owner.ID(), 0x3000); err != nil {
			t.Errorf("AliasFrom: %v", err)
			return
		}
		srv := r.server(t)
		if srv.Mappings() != 3 {
			t.Errorf("mappings = %d; want 3", srv.Mappings())
		}
		if err := r.c.ReleasePage(th, 0x1000); err != nil {
			t.Errorf("ReleasePage: %v", err)
			return
		}
		if srv.Mappings() != 0 {
			t.Errorf("mappings after root release = %d; want 0 (recursive revocation)", srv.Mappings())
		}
		// The stub must also have dropped the whole subtree.
		if got := r.c.Stub().Tracked(); got != 0 {
			t.Errorf("tracked descriptors = %d; want 0", got)
		}
	})
}

func TestDoubleMapRejected(t *testing.T) {
	r := newRig(t)
	r.run(t, func(th *kernel.Thread) {
		if _, err := r.c.GetPage(th, 0x1000); err != nil {
			t.Errorf("GetPage: %v", err)
			return
		}
		if _, err := r.c.GetPage(th, 0x1000); err == nil {
			t.Error("double GetPage of same vaddr accepted")
		}
	})
}

func TestSameVaddrDifferentComponents(t *testing.T) {
	r := newRig(t)
	r.run(t, func(th *kernel.Thread) {
		if _, err := r.c.GetPage(th, 0x1000); err != nil {
			t.Errorf("GetPage: %v", err)
			return
		}
		// Alias to the peer at the same numeric vaddr: distinct namespace.
		if _, err := r.c.AliasPage(th, 0x1000, r.peer.ID(), 0x1000); err != nil {
			t.Errorf("AliasPage same vaddr in other component: %v", err)
		}
	})
}

// TestRecoveryRebuildsAliasChain: fault the MM after building a root + two
// chained aliases, then release the root. D0 forces the stub to recover the
// whole subtree (parents first, D1) before the recursive revocation.
func TestRecoveryRebuildsAliasChain(t *testing.T) {
	r := newRig(t)
	r.run(t, func(th *kernel.Thread) {
		if _, err := r.c.GetPage(th, 0x1000); err != nil {
			t.Errorf("GetPage: %v", err)
			return
		}
		if _, err := r.c.AliasPage(th, 0x1000, r.peer.ID(), 0x2000); err != nil {
			t.Errorf("AliasPage: %v", err)
			return
		}
		if _, err := r.c.AliasFrom(th, r.peer.ID(), 0x2000, r.owner.ID(), 0x3000); err != nil {
			t.Errorf("AliasFrom: %v", err)
			return
		}
		if err := r.sys.Kernel().FailComponent(r.comp); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		if err := r.c.ReleasePage(th, 0x1000); err != nil {
			t.Errorf("ReleasePage after fault: %v", err)
			return
		}
		srv := r.server(t)
		if srv.Mappings() != 0 {
			t.Errorf("mappings after recovered release = %d; want 0", srv.Mappings())
		}
		m := r.c.Stub().Metrics()
		if m.WalkSteps < 3 {
			t.Errorf("walk steps = %d; want ≥ 3 (root + two aliases rebuilt)", m.WalkSteps)
		}
		if got := r.c.Stub().Tracked(); got != 0 {
			t.Errorf("tracked descriptors after recovered release = %d; want 0", got)
		}
	})
}

// TestRecoveryPreservesSharing: after recovery, re-aliased mappings must
// share a frame again.
func TestRecoveryPreservesSharing(t *testing.T) {
	r := newRig(t)
	r.run(t, func(th *kernel.Thread) {
		if _, err := r.c.GetPage(th, 0x1000); err != nil {
			t.Errorf("GetPage: %v", err)
			return
		}
		if _, err := r.c.AliasPage(th, 0x1000, r.peer.ID(), 0x2000); err != nil {
			t.Errorf("AliasPage: %v", err)
			return
		}
		if err := r.sys.Kernel().FailComponent(r.comp); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		// Touching the alias recovers parent first, then the alias.
		if _, err := r.c.AliasFrom(th, r.peer.ID(), 0x2000, r.owner.ID(), 0x3000); err != nil {
			t.Errorf("AliasFrom after fault: %v", err)
			return
		}
		srv := r.server(t)
		f1, ok1 := srv.Frame(kernel.Word(r.owner.ID()), 0x1000)
		f2, ok2 := srv.Frame(kernel.Word(r.peer.ID()), 0x2000)
		f3, ok3 := srv.Frame(kernel.Word(r.owner.ID()), 0x3000)
		if !ok1 || !ok2 || !ok3 || f1 != f2 || f2 != f3 {
			t.Errorf("recovered frames = %d/%v %d/%v %d/%v; want all shared", f1, ok1, f2, ok2, f3, ok3)
		}
	})
}

// TestRebuildNotificationUpcall: recovering a mapping aliased into another
// component announces the rebuild with an upcall into that component
// (U0 for the MM, §II-D: "upcalls are made into client components in order
// to rebuild correct state between dependent mappings").
func TestRebuildNotificationUpcall(t *testing.T) {
	r := newRig(t)
	var notified []core.DescKey
	r.peer.Handle(core.FnRebuilt, func(th *kernel.Thread, args []kernel.Word) (kernel.Word, error) {
		notified = append(notified, core.DescKey{NS: args[1], ID: args[2]})
		return 0, nil
	})
	r.run(t, func(th *kernel.Thread) {
		if _, err := r.c.GetPage(th, 0x1000); err != nil {
			t.Errorf("GetPage: %v", err)
			return
		}
		if _, err := r.c.AliasPage(th, 0x1000, r.peer.ID(), 0x2000); err != nil {
			t.Errorf("AliasPage: %v", err)
			return
		}
		if err := r.sys.Kernel().FailComponent(r.comp); err != nil {
			t.Errorf("FailComponent: %v", err)
		}
		// Touch the alias: its recovery must notify the peer component.
		if _, err := r.c.AliasFrom(th, r.peer.ID(), 0x2000, r.owner.ID(), 0x3000); err != nil {
			t.Errorf("AliasFrom after fault: %v", err)
			return
		}
	})
	found := false
	for _, key := range notified {
		if key == (core.DescKey{NS: kernel.Word(r.peer.ID()), ID: 0x2000}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("peer never notified of its rebuilt mapping; got %v", notified)
	}
	if m := r.c.Stub().Metrics(); m.Upcalls == 0 {
		t.Error("no upcalls recorded in stub metrics")
	}
}

func TestWorkloadCleanRun(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	w := NewWorkload(4)
	if _, err := w.Build(sys); err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := sys.Kernel().Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestWorkloadSurvivesInjectedFault(t *testing.T) {
	for nth := 1; nth <= 13; nth += 2 {
		sys, err := core.NewSystem(core.OnDemand)
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		w := NewWorkload(4)
		comp, err := w.Build(sys)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		count := 0
		sys.Kernel().SetInvokeHook(func(th *kernel.Thread, c kernel.ComponentID, fn string, phase kernel.InvokePhase) {
			if c == comp && phase == kernel.PhaseEntry {
				count++
				if count == nth {
					if err := sys.Kernel().FailComponent(comp); err != nil {
						t.Errorf("FailComponent: %v", err)
					}
				}
			}
		})
		if err := sys.Kernel().Run(); err != nil {
			t.Fatalf("Run (fault at %d): %v", nth, err)
		}
		if err := w.Check(); err != nil {
			t.Fatalf("Check (fault at %d): %v", nth, err)
		}
	}
}
