package webserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"superglue/internal/core"
	"superglue/internal/kernel"
)

// inflight is one connection's request in flight through the simulation.
// The connection goroutine owns it between requests; from submit until the
// done signal the simulation does. It is reused for every request on the
// connection, so the steady state allocates neither it nor its channel.
type inflight struct {
	req  *Request      // parsed head; nil when err is set
	err  error         // parse error, served as a 400
	out  []byte        // the rendered response, reused across requests
	done chan struct{} // signaled once out holds the response
}

// bridge connects real I/O goroutines to the simulated machine: connection
// handlers enqueue requests and wake the simulated netif thread through the
// kernel's interrupt path; the idle handler parks the machine until work or
// shutdown arrives.
type bridge struct {
	mu      sync.Mutex
	queue   []*inflight
	head    int // index of the next request to pop
	stopped bool

	arrivals chan struct{} // signaled on enqueue and on stop
	netifTID kernel.ThreadID
	k        *kernel.Kernel
}

func newBridge(k *kernel.Kernel) *bridge {
	return &bridge{arrivals: make(chan struct{}, 1), k: k}
}

// submit hands a request to the simulation; in.done signals its response.
func (b *bridge) submit(in *inflight) error {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return errors.New("webserver: shutting down")
	}
	b.queue = append(b.queue, in)
	b.mu.Unlock()
	b.kick()
	return nil
}

// pop removes the next queued request (nil when empty), and reports whether
// the bridge has been stopped. A drained queue restarts at the front of its
// backing array, so a steady stream reuses it.
func (b *bridge) pop() (*inflight, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head == len(b.queue) {
		return nil, b.stopped
	}
	req := b.queue[b.head]
	b.queue[b.head] = nil
	b.head++
	if b.head == len(b.queue) {
		b.queue, b.head = b.queue[:0], 0
	}
	return req, b.stopped
}

// stop initiates shutdown: the netif thread drains the queue and exits.
func (b *bridge) stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
	b.kick()
}

// kick wakes the simulated netif thread, then signals the idle handler.
// This is the one wake-up an arrival causes. The wake-up comes first, so by
// the time the idle handler sees the signal the netif thread is runnable
// (or, if it was running, will find its next Block already satisfied).
func (b *bridge) kick() {
	_ = b.k.ExternalWakeup(b.netifTID) // pre-halt errors are benign here
	select {
	case b.arrivals <- struct{}{}:
	default:
	}
}

// idle is the kernel idle handler: park until an arrival or shutdown has
// been kicked. It wakes nobody itself; a signal left over from an arrival
// the netif thread already took only costs one more scheduling pass.
func (b *bridge) idle() bool {
	_, ok := <-b.arrivals
	return ok
}

// Serve accepts HTTP connections on ln and services every request through
// the componentized system (variant VariantC3 or VariantSuperGlue, or
// VariantComposite for the no-recovery substrate): the live-server mode of
// the Fig. 7 application. It returns after ln is closed and all in-flight
// connections drain. faultEvery > 0 injects one rotating component crash
// per that many completed requests, recovered in-line with service.
func Serve(ln net.Listener, cfg Config) error {
	if cfg.Variant == VariantBaseline || cfg.Variant == 0 {
		return errors.New("webserver: Serve requires a componentized variant")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Files == nil {
		cfg.Files = DefaultFiles()
	}
	if cfg.Mode == 0 {
		cfg.Mode = core.OnDemand
	}
	if cfg.FaultEvery > 0 && cfg.Variant != VariantC3 && cfg.Variant != VariantSuperGlue {
		return errors.New("webserver: fault injection requires a recovery variant")
	}

	sys, err := core.NewSystemWithStorage(cfg.Mode, 1, cfg.Replicas)
	if err != nil {
		return err
	}
	svc, ids, err := buildSubstrate(sys, cfg.Variant)
	if err != nil {
		return err
	}
	k := sys.Kernel()
	br := newBridge(k)
	site := paths(cfg.Files)

	var (
		cacheLock  kernel.Word
		fdCache    = make(map[string]kernel.Word)
		workerEvts = make([]kernel.Word, cfg.Workers)
		completed  = 0
		runErrs    []error
	)
	fail := func(err error) { runErrs = append(runErrs, err) }

	// Loader: preload the site and create the coordination descriptors.
	if _, err := k.CreateThread(nil, "loader", 1, func(t *kernel.Thread) {
		for _, p := range site {
			fd, err := svc.fs.Open(t, p)
			if err != nil {
				fail(fmt.Errorf("loader open %s: %w", p, err))
				return
			}
			if _, err := svc.fs.Write(t, fd, cfg.Files[p]); err != nil {
				fail(fmt.Errorf("loader write %s: %w", p, err))
				return
			}
			if err := svc.fs.Close(t, fd); err != nil {
				fail(fmt.Errorf("loader close %s: %w", p, err))
				return
			}
		}
		id, err := svc.lock.Alloc(t)
		if err != nil {
			fail(fmt.Errorf("loader lock: %w", err))
			return
		}
		cacheLock = id
		for i := range workerEvts {
			evt, err := svc.evt.Split(t, 0, kernel.Word(i))
			if err != nil {
				fail(fmt.Errorf("loader evt %d: %w", i, err))
				return
			}
			workerEvts[i] = evt
		}
	}); err != nil {
		return err
	}

	// Workers: serve requests handed over per-worker inboxes.
	inboxes := make([][]*inflight, cfg.Workers)
	workersLive := cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		w := w
		if _, err := k.CreateThread(nil, fmt.Sprintf("worker%d", w), 10, func(t *kernel.Thread) {
			defer func() { workersLive-- }()
			if _, err := svc.sched.Setup(t, t.Prio()); err != nil {
				fail(fmt.Errorf("worker%d setup: %w", w, err))
				return
			}
			for {
				if _, err := svc.evt.Wait(t, workerEvts[w]); err != nil {
					fail(fmt.Errorf("worker%d wait: %w", w, err))
					return
				}
				// Serving can block, and netif may append meanwhile: the
				// bound is re-read every step, and the inbox restarts at
				// its front only once drained.
				for i := 0; i < len(inboxes[w]); i++ {
					in := inboxes[w][i]
					inboxes[w][i] = nil
					if in == nil { // poison: shutdown
						return
					}
					serveOne(t, svc, cacheLock, fdCache, in)
					in.done <- struct{}{}
					completed++
				}
				inboxes[w] = inboxes[w][:0]
			}
		}); err != nil {
			return err
		}
	}

	// Netif: drain the bridge queue into worker inboxes; exits once stopped
	// and drained, after poisoning the workers.
	crashTargets := []kernel.ComponentID{ids.lock, ids.evt, ids.fs, ids.timer, ids.sched}
	faults := 0
	nextFault := cfg.FaultEvery
	netifTID, err := k.CreateThread(nil, "netif", 11, func(t *kernel.Thread) {
		next := 0
		for {
			req, stopped := br.pop()
			if req == nil {
				if stopped {
					for w := 0; w < cfg.Workers; w++ {
						inboxes[w] = append(inboxes[w], nil)
						if _, err := svc.evt.Trigger(t, workerEvts[w]); err != nil {
							fail(fmt.Errorf("netif poison: %w", err))
							return
						}
					}
					// Keep nudging until every worker saw its poison.
					for workersLive > 0 {
						for w := 0; w < cfg.Workers; w++ {
							if _, err := svc.evt.Trigger(t, workerEvts[w]); err != nil {
								fail(fmt.Errorf("netif drain: %w", err))
								return
							}
						}
						if err := k.Yield(t); err != nil {
							return
						}
					}
					return
				}
				// Queue empty: park; the bridge wakes us on arrivals.
				if err := k.Block(t); err != nil {
					// Diverted by a reboot of a component we are not a
					// client of mid-block cannot happen (we block in home
					// context); treat any error as shutdown.
					return
				}
				continue
			}
			if cfg.FaultEvery > 0 && completed >= nextFault {
				target := crashTargets[faults%len(crashTargets)]
				if err := k.FailComponent(target); err != nil {
					fail(err)
					return
				}
				faults++
				nextFault += cfg.FaultEvery
			}
			w := next % cfg.Workers
			next++
			inboxes[w] = append(inboxes[w], req)
			if _, err := svc.evt.Trigger(t, workerEvts[w]); err != nil {
				fail(fmt.Errorf("netif trigger: %w", err))
				return
			}
		}
	})
	if err != nil {
		return err
	}
	br.netifTID = netifTID
	k.SetIdleHandler(br.idle)

	// Run the machine in the background.
	simDone := make(chan error, 1)
	go func() { simDone <- k.Run() }()

	// Accept loop: one goroutine per connection. Open connections are
	// tracked so shutdown can sever idle keep-alive sessions.
	var conns sync.WaitGroup
	var connMu sync.Mutex
	open := make(map[net.Conn]struct{})
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed: shut down
		}
		connMu.Lock()
		open[conn] = struct{}{}
		connMu.Unlock()
		conns.Add(1)
		go func() {
			defer conns.Done()
			defer func() {
				connMu.Lock()
				delete(open, conn)
				connMu.Unlock()
				_ = conn.Close()
			}()
			handleConn(conn, br)
		}()
	}
	connMu.Lock()
	for conn := range open {
		_ = conn.Close()
	}
	connMu.Unlock()
	conns.Wait()
	br.stop()
	simErr := <-simDone
	close(br.arrivals)
	if simErr != nil {
		return fmt.Errorf("webserver: simulation: %w", simErr)
	}
	if len(runErrs) > 0 {
		return errors.Join(runErrs...)
	}
	return nil
}

// serveOne services one parsed request through the component path and
// renders the response into in.out. A head that did not parse gets a 400
// carrying the parse error.
func serveOne(t *kernel.Thread, svc *services, cacheLock kernel.Word, fdCache map[string]kernel.Word, in *inflight) {
	if in.err != nil {
		in.out = appendResponse(in.out[:0], 400, []byte(in.err.Error()))
		return
	}
	body, found, err := readFile(t, svc, cacheLock, fdCache, in.req.Path)
	switch {
	case err != nil:
		in.out = appendResponse(in.out[:0], 500, []byte(err.Error()))
	case !found:
		in.out = appendResponse(in.out[:0], 404, []byte("not found"))
	default:
		in.out = appendResponse(in.out[:0], 200, body)
	}
}

// handleConn reads HTTP/1.1 requests off one connection and writes the
// simulation's responses back, honoring keep-alive. Each head is read into
// the connection's one head buffer and parsed once; the parse travels with
// the request and also decides keep-alive.
func handleConn(conn net.Conn, br *bridge) {
	r := bufio.NewReader(conn)
	in := &inflight{done: make(chan struct{}, 1)}
	var head []byte
	for {
		var err error
		if head, err = readRequest(r, head); err != nil {
			return // EOF or malformed framing: drop the connection
		}
		in.req, in.err = ParseRequest(head)
		if err := br.submit(in); err != nil {
			return
		}
		<-in.done
		if _, err := conn.Write(in.out); err != nil {
			return
		}
		if in.err == nil && in.req.Headers["connection"] == "close" {
			return
		}
	}
}

// maxHeadBytes caps a request head. The cap is checked on every fragment
// the reader hands back, so a head line that never ends costs at most this
// much plus one bufio buffer.
const maxHeadBytes = 64 * 1024

// errHeadTooLarge reports a request head longer than maxHeadBytes.
var errHeadTooLarge = errors.New("webserver: request head too large")

// readRequest reads one request head (through the blank line) into buf,
// which it reuses from its start, and returns the filled buffer. Bodies are
// not supported (GET/HEAD only). It returns io.EOF when the stream ends
// before any byte of a head.
func readRequest(r *bufio.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	line := 0 // start of the current line in buf
	for {
		frag, err := r.ReadSlice('\n')
		if len(buf)+len(frag) > maxHeadBytes {
			return buf, errHeadTooLarge
		}
		buf = append(buf, frag...)
		switch {
		case err == bufio.ErrBufferFull:
			continue // the line goes on past the bufio buffer
		case err != nil:
			if len(buf) == 0 {
				return buf, io.EOF
			}
			return buf, err
		}
		if n := len(buf) - line; n == 1 || (n == 2 && buf[line] == '\r') {
			return buf, nil
		}
		line = len(buf)
	}
}
