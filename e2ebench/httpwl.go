package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"superglue/internal/webserver"
)

// httpConfig is one HTTP workload: the live SuperGlue server driven by
// one keep-alive connection in a closed loop over loopback TCP.
//
// The traffic is cut into sessions: each session starts a fresh server,
// sends it the same sessionRequests requests and shuts it down. A server
// injected with faults keeps state for every recovery it ran, and slows
// down and grows as it goes (over 40 s of http-recovery traffic its live
// heap doubled and its per-window p99 went from 98 to 269 µs), so a run
// of unbounded length would measure how long the server had been up. A
// fixed session gives every run the same work.
type httpConfig struct {
	faultEvery      int // webserver.Config.FaultEvery
	replicas        int // webserver.Config.Replicas
	sessionRequests int // requests per server lifetime
}

const (
	clientConns = 1 // client connections of every HTTP workload
	simWorkers  = 2 // simulated worker threads in the server
)

func (h httpConfig) server(files map[string][]byte) webserver.Config {
	return webserver.Config{
		Variant:    webserver.VariantSuperGlue,
		Workers:    simWorkers,
		Files:      files,
		FaultEvery: h.faultEvery,
		Replicas:   h.replicas,
	}
}

const (
	windowRequests = 2000             // requests per latency window (see latencyWindows)
	answerTimeout  = 30 * time.Second // a session not answered by then has failed
	serveTimeout   = 10 * time.Second // Serve must return this soon after the listener closes
)

// liveServer is one webserver.Serve running on a loopback listener.
type liveServer struct {
	ln   net.Listener
	done chan error
}

// startServer calls Serve and returns once a first GET of the site's
// first page came back correct, with the time that took: building the
// system, preloading the site, starting the simulation and one request.
func startServer(cfg webserver.Config, s *site) (*liveServer, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	srv := &liveServer{ln: ln, done: make(chan error, 1)}
	start := time.Now()
	go func() { srv.done <- webserver.Serve(ln, cfg) }()
	c, err := dial(ln.Addr().String())
	if err != nil {
		return nil, 0, errors.Join(err, srv.stop())
	}
	defer c.close()
	status, body, tm, err := c.do(s.reqs[0], false)
	if err == nil {
		err = checkResponse(status, body, s.files[s.paths[0]])
	}
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("first request: %w", err), srv.stop())
	}
	return srv, tm.done.Sub(start), nil
}

// stop closes the listener and waits for Serve, which must return nil.
func (srv *liveServer) stop() error {
	if err := srv.ln.Close(); err != nil {
		return err
	}
	select {
	case err := <-srv.done:
		if err != nil {
			return fmt.Errorf("Serve returned %w", err)
		}
		return nil
	case <-time.After(serveTimeout):
		return fmt.Errorf("Serve did not return within %v of the listener closing", serveTimeout)
	}
}

// httpPhase is what a stretch of sessions gave.
type httpPhase struct {
	sessions          int
	attempted, failed int
	correct           int
	sessionRPS        []float64 // correct responses per second while each session's connections were sending
	windows           []windowStats
	setups            []float64 // seconds, one per session
	firstErr          error
}

// rps is the median session's request rate, so a stall that spans less
// than half of the sessions does not move it.
func (p httpPhase) rps() float64 { return median(p.sessionRPS) }

func (p httpPhase) latency() windowSummary { return summarise(p.windows) }

func (p *httpPhase) noteErr(err error) {
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// traffic is one workload's fixed inputs: the site and the
// connection's request sequence.
type traffic struct {
	cfg  httpConfig
	site *site
	mix  []uint8
}

func newTraffic(cfg httpConfig, seed int64) *traffic {
	t := &traffic{cfg: cfg, site: newSite(webserver.DefaultFiles())}
	t.mix = requestMix(seed, len(t.site.paths))
	return t
}

// runSessions runs whole sessions until dur has passed. With tr set each
// request is recorded as a span tree.
func (t *traffic) runSessions(dur time.Duration, tr *tracer) httpPhase {
	var p httpPhase
	start := time.Now()
	for time.Since(start) < dur {
		if err := t.session(&p, tr); err != nil {
			p.noteErr(err)
			p.attempted++ // the session, counted as one failed operation
			p.failed++
			break
		}
		p.sessions++
	}
	return p
}

// session starts a server, sends the connection's requests through it
// and stops it, adding what it saw to p. It returns an error only when
// the server could not be started, reached or stopped correctly.
func (t *traffic) session(p *httpPhase, tr *tracer) error {
	srv, setup, err := startServer(t.cfg.server(t.site.files), t.site)
	if err != nil {
		return fmt.Errorf("server start: %w", err)
	}
	p.setups = append(p.setups, setup.Seconds())
	if err := t.send(p, srv.ln.Addr().String(), tr); err != nil {
		return errors.Join(err, srv.stop())
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("server stop: %w", err)
	}
	return nil
}

// send runs the session's requests over one connection to addr, checking
// every response. A request that got no answer is a failed request and
// ends the session's traffic: the connection is unusable. It returns an
// error only when the connection could not be set up.
func (t *traffic) send(p *httpPhase, addr string, tr *tracer) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	if err := c.conn.SetDeadline(time.Now().Add(answerTimeout)); err != nil {
		return err
	}
	log := tr.log()
	lat := newLatencyWindows(windowRequests)
	var first, last time.Time
	correct := 0
	for n := 0; n < t.cfg.sessionRequests; n++ {
		page := int(t.mix[n%mixLen])
		status, body, tm, err := c.do(t.site.reqs[page], log != nil)
		if n == 0 {
			first = tm.start
		}
		p.attempted++
		if err != nil {
			p.failed++
			p.noteErr(fmt.Errorf("request %d: %w", n, err))
			return nil
		}
		if err := checkResponse(status, body, t.site.files[t.site.paths[page]]); err != nil {
			p.failed++
			p.noteErr(fmt.Errorf("GET %s: %w", t.site.paths[page], err))
			continue
		}
		correct++
		last = tm.done
		lat.add(float64(tm.done.Sub(tm.start)) / 1e3)
		if log != nil && tr.takeTree() {
			id := uint64(p.sessions)<<32 | uint64(n+1)
			root := log.add("http.request", id, -1, tm.start, tm.done)
			log.add("http.write", id, root, tm.start, tm.written)
			log.add("http.ttfb", id, root, tm.written, tm.first)
			log.add("http.read", id, root, tm.first, tm.done)
		}
	}
	p.correct += correct
	p.windows = append(p.windows, lat.windows...)
	if last.After(first) {
		p.sessionRPS = append(p.sessionRPS, float64(correct)/last.Sub(first).Seconds())
	}
	return nil
}

// httpRun is the outcome of one HTTP workload run.
type httpRun struct {
	main       httpPhase // untraced measured phase
	traced     *httpPhase
	peakHeapMB float64
	rt         rtDelta
	spans      []span
}

// counts returns the requests attempted and failed over the whole run,
// with the first failure seen.
func (r *httpRun) counts() (attempted, failed int, firstErr error) {
	attempted, failed, firstErr = r.main.attempted, r.main.failed, r.main.firstErr
	if r.traced != nil {
		attempted += r.traced.attempted
		failed += r.traced.failed
		if firstErr == nil {
			firstErr = r.traced.firstErr
		}
	}
	return attempted, failed, firstErr
}

// runHTTP runs one HTTP workload for dur: untraced, or with traced set
// half untraced and half traced.
func runHTTP(cfg httpConfig, seed int64, dur time.Duration, traced bool) *httpRun {
	t := newTraffic(cfg, seed)
	mainDur := dur
	if traced {
		mainDur = dur / 2
	}
	run := &httpRun{}
	runtime.GC()
	heap := startHeapSampler(5 * time.Millisecond)
	before := readRuntime()
	run.main = t.runSessions(mainDur, nil)
	run.rt = runtimeDelta(before, readRuntime())
	run.peakHeapMB = heap.finish()
	if traced {
		tr := newTracer()
		p := t.runSessions(dur-mainDur, tr)
		run.traced = &p
		run.spans = tr.spans()
	}
	return run
}

// httpLayerSpans reduces request spans to the per-request medians of
// their write, wait-for-first-byte and read parts, in µs.
func httpLayerSpans(spans []span) (write, ttfb, read float64, n int) {
	var w, t, r []float64
	for _, s := range spans {
		d := float64(s.end-s.start) / 1e3
		switch s.name {
		case "http.write":
			w = append(w, d)
		case "http.ttfb":
			t = append(t, d)
		case "http.read":
			r = append(r, d)
		}
	}
	return median(w), median(t), median(r), len(w)
}

// logf prints a diagnostic line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}
