package superglue

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"superglue/internal/cbuf"
	"superglue/internal/core"
	"superglue/internal/fault"
	"superglue/internal/kernel"
	"superglue/internal/obs"
	"superglue/internal/services/event"
	"superglue/internal/services/lock"
	"superglue/internal/storage"
	"superglue/internal/webserver"
)

// The allocation budget guards: the steady-state fast paths measured by
// BenchmarkKernelInvoke and BenchmarkTrackingLock/superglue must stay at
// 0 allocs/op. A regression here silently re-introduces GC pressure on the
// invocation primitive, so it fails as a test rather than waiting for
// someone to read benchmark output.

// TestKernelInvokeZeroAllocs pins the bare invocation primitive.
func TestKernelInvokeZeroAllocs(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := event.Register(sys)
	if err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel()
	allocs := -1.0
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		id, err := k.Invoke(th, comp, event.FnSplit, 1, 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		args := []kernel.Word{1, id}
		// Warm the path (first call touches cold map buckets etc.).
		if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(500, func() {
			if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
				t.Error(err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steady-state kernel Invoke allocates %.1f objects/op, want 0", allocs)
	}
}

// TestKernelInvokeZeroAllocsTracingDisabled pins the same fast path after a
// tracer has been installed and removed again: the stub trace hooks sit
// behind a nil-check, and with the recorder detached they must cost nothing.
func TestKernelInvokeZeroAllocsTracingDisabled(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := event.Register(sys)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetTracer(obs.NewRecorder(obs.DefaultCapacity))
	sys.SetTracer(nil)
	k := sys.Kernel()
	allocs := -1.0
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		id, err := k.Invoke(th, comp, event.FnSplit, 1, 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		args := []kernel.Word{1, id}
		if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(500, func() {
			if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
				t.Error(err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("tracing-disabled kernel Invoke allocates %.1f objects/op, want 0", allocs)
	}
}

// TestKernelInvokeZeroAllocsTracingEnabled pins the fast path with a live
// recorder attached: the ring buffer's steady-state Record path is
// allocation-free, so enabling tracing must not add GC pressure either.
func TestKernelInvokeZeroAllocsTracingEnabled(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := event.Register(sys)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetTracer(obs.NewRecorder(obs.DefaultCapacity))
	k := sys.Kernel()
	allocs := -1.0
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		id, err := k.Invoke(th, comp, event.FnSplit, 1, 0, 0)
		if err != nil {
			t.Error(err)
			return
		}
		args := []kernel.Word{1, id}
		// Warm: the first traced invoke touches the recorder's cold
		// per-component aggregate slots.
		if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(500, func() {
			if _, err := k.Invoke(th, comp, event.FnTrigger, args...); err != nil {
				t.Error(err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("tracing-enabled kernel Invoke allocates %.1f objects/op, want 0", allocs)
	}
}

// TestLockStubZeroAllocs pins the SuperGlue stub's tracked lock
// take/release cycle (the BenchmarkTrackingLock/superglue path).
func TestLockStubZeroAllocs(t *testing.T) {
	sys, err := core.NewSystem(core.OnDemand)
	if err != nil {
		t.Fatal(err)
	}
	lockComp, err := lock.Register(sys)
	if err != nil {
		t.Fatal(err)
	}
	app, err := sys.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	locks, err := lock.NewClient(app, lockComp)
	if err != nil {
		t.Fatal(err)
	}
	k := sys.Kernel()
	allocs := -1.0
	if _, err := k.CreateThread(nil, "main", 10, func(th *kernel.Thread) {
		id, err := locks.Alloc(th)
		if err != nil {
			t.Error(err)
			return
		}
		// Warm: the first hold allocates the per-thread tracking entry,
		// which is reused (not deleted) from then on.
		if err := locks.Take(th, id); err != nil {
			t.Error(err)
			return
		}
		if err := locks.Release(th, id); err != nil {
			t.Error(err)
			return
		}
		allocs = testing.AllocsPerRun(500, func() {
			if err := locks.Take(th, id); err != nil {
				t.Error(err)
			}
			if err := locks.Release(th, id); err != nil {
				t.Error(err)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steady-state lock take/release allocates %.1f objects/op, want 0", allocs)
	}
}

// TestStorageQuorumWriteAllocs guards the quorum write path
// (BenchmarkStorageQuorumWrite): sealing a WAL record once per write
// into the store's reusable scratch buffer — instead of one fresh encode
// per replica per write — plus encode-buffer reuse on the checkpoint
// path keeps a 3-replica SaveSlice to a handful of allocations per op
// (the survivors are the per-replica extent-list appends and the
// amortized every-64-writes checkpoint clone; it was 21 allocs/op and
// ~276 KB/op before the reuse).
func TestStorageQuorumWriteAllocs(t *testing.T) {
	cm := cbuf.NewManager(0)
	s := storage.NewReplicated(cm, 3)
	s.Attach(kernel.ComponentID(42))
	data := []byte("quorum-write-payload")
	const owner = 9
	b, err := cm.Alloc(owner, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Write(b, owner, 0, data); err != nil {
		t.Fatal(err)
	}
	// Warm the rotating descriptor set (same shape as the benchmark), so
	// the measured window sees the steady state.
	i := 0
	write := func() {
		if err := s.SaveSlice(1, kernel.Word(i%64), 0, b, 0, len(data)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for n := 0; n < 256; n++ {
		write()
	}
	allocs := testing.AllocsPerRun(512, write)
	if allocs > 8 {
		t.Errorf("quorum SaveSlice allocates %.1f objects/op, want <= 8", allocs)
	}
}

// TestRecorderShortRunBytes pins what one traced SWIFI trial pays for its
// recorder: a default-capacity Recorder that records 40 events (a trial
// records 11–40) must allocate well under the 4096-event ring it may grow
// to (~360 KiB if preallocated), because the ring grows on demand.
func TestRecorderShortRunBytes(t *testing.T) {
	const budget = 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := obs.NewRecorder(0)
	for i := 0; i < 40; i++ {
		comp := int32(2 + i%3)
		switch i % 4 {
		case 0:
			r.RecordInvoke(comp, 1, "fn", int64(i), 0)
		case 1:
			r.RecordFault(comp, 1, "fn", int64(i), 0, fault.KindRegisterFlip, fault.SevError)
		case 2:
			r.RecordReboot(comp, 1, int64(i), 1, 5, 2)
		default:
			r.RecordRecovery(obs.MechR0, comp, 1, "fn", int64(i), 1, 3, 1)
		}
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
		t.Errorf("NewRecorder(0) + 40 events allocated %d bytes, want < %d", got, budget)
	}
}

// loopbackClient is one keep-alive connection to a live webserver.Serve
// that allocates nothing per request: requests and the expected responses
// are rendered up front, and each response is read into a fixed buffer.
type loopbackClient struct {
	conn  net.Conn
	reqs  [][]byte
	resps [][]byte
	buf   []byte
	stop  func() error
	n     int
}

// startLoopback serves the default site from a SuperGlue server on a
// loopback listener and dials one connection to it.
func startLoopback(tb testing.TB) *loopbackClient {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	files := webserver.DefaultFiles()
	done := make(chan error, 1)
	go func() {
		done <- webserver.Serve(ln, webserver.Config{Variant: webserver.VariantSuperGlue, Files: files})
	}()
	c := &loopbackClient{stop: func() error {
		_ = ln.Close()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("Serve did not return after listener close")
		}
	}}
	if c.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		_ = c.stop()
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/f%d.html", i)
		c.reqs = append(c.reqs, webserver.FormatRequest(p, true))
		c.resps = append(c.resps, webserver.FormatResponse(200, files[p]))
		c.buf = make([]byte, max(len(c.buf), len(c.resps[i])))
	}
	return c
}

// do sends the next request and checks the response byte for byte.
func (c *loopbackClient) do() error {
	i := c.n % len(c.reqs)
	c.n++
	if _, err := c.conn.Write(c.reqs[i]); err != nil {
		return err
	}
	got := c.buf[:len(c.resps[i])]
	if _, err := io.ReadFull(c.conn, got); err != nil {
		return err
	}
	if !bytes.Equal(got, c.resps[i]) {
		return fmt.Errorf("response %d = %q; want %q", c.n, got, c.resps[i])
	}
	return nil
}

// close hangs up and stops the server.
func (c *loopbackClient) close() error {
	_ = c.conn.Close()
	return c.stop()
}

// TestServeLoopbackAllocs guards the live request path end to end: 2000
// keep-alive GETs over loopback through webserver.Serve, from a client
// that allocates nothing per request, may cost the whole process at most
// 12 heap allocations per request. The HTTP edge reuses its head buffer,
// parses each head once and renders into a per-connection buffer, so what
// remains is the component path and the parsed Request (the edge used to
// add ~20 more).
func TestServeLoopbackAllocs(t *testing.T) {
	const requests, budget = 2000, 12
	c := startLoopback(t)
	for i := 0; i < 200; i++ { // warm: caches, buffers, descriptors
		if err := c.do(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		if err := c.do(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if per := float64(after.Mallocs-before.Mallocs) / requests; per > budget {
		t.Errorf("a live keep-alive request costs %.1f allocations, want <= %d", per, budget)
	}
}
