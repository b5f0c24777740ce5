package webserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"superglue/internal/kernel"
)

// startServer boots Serve on a loopback listener and returns the base URL
// and a shutdown func that waits for Serve to return.
func startServer(t *testing.T, cfg Config) (string, func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- Serve(ln, cfg) }()
	shutdown := func() error {
		_ = ln.Close()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("Serve did not return after listener close")
		}
	}
	return "http://" + ln.Addr().String(), shutdown
}

func TestServeRealHTTP(t *testing.T) {
	files := DefaultFiles()
	url, shutdown := startServer(t, Config{Variant: VariantSuperGlue, Files: files})
	client := &http.Client{Timeout: 5 * time.Second}

	resp, err := client.Get(url + "/index.html")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d; want 200", resp.StatusCode)
	}
	if string(body) != string(files["/index.html"]) {
		t.Fatalf("body = %q; want the site file", body)
	}

	resp, err = client.Get(url + "/missing.html")
	if err != nil {
		t.Fatalf("GET missing: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d; want 404", resp.StatusCode)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeKeepAliveAndConcurrency(t *testing.T) {
	files := DefaultFiles()
	url, shutdown := startServer(t, Config{Variant: VariantC3, Files: files, Workers: 3})
	client := &http.Client{Timeout: 10 * time.Second}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				path := fmt.Sprintf("/f%d.html", i%8)
				resp, err := client.Get(url + path)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != 200 || string(body) != string(files[path]) {
					errs <- fmt.Errorf("%s: status %d, %d bytes", path, resp.StatusCode, len(body))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeAcrossInjectedFaults(t *testing.T) {
	files := DefaultFiles()
	url, shutdown := startServer(t, Config{
		Variant:    VariantSuperGlue,
		Files:      files,
		FaultEvery: 40,
	})
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 300; i++ {
		path := fmt.Sprintf("/f%d.html", i%8)
		resp, err := client.Get(url + path)
		if err != nil {
			t.Fatalf("GET %d: %v", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if resp.StatusCode != 200 || string(body) != string(files[path]) {
			t.Fatalf("request %d: status %d body %d bytes (service must survive crashes)",
				i, resp.StatusCode, len(body))
		}
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServeRejectsBaseline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer func() { _ = ln.Close() }()
	if err := Serve(ln, Config{Variant: VariantBaseline}); err == nil {
		t.Fatal("Serve accepted the baseline variant")
	}
}

// endlessLine is a reader that sends size bytes of one head line that never
// ends, without holding them in memory, and counts what was read.
type endlessLine struct{ size, read int }

func (r *endlessLine) Read(p []byte) (int, error) {
	if r.read == r.size {
		return 0, io.EOF
	}
	n := min(len(p), r.size-r.read)
	for i := range p[:n] {
		p[i] = 'a'
	}
	r.read += n
	return n, nil
}

// TestReadRequestBoundsHeadLine feeds the head reader a 32 MiB line with no
// newline: it must give up with errHeadTooLarge after at most the head cap
// plus one bufio buffer, allocating well under 1 MiB on the way.
func TestReadRequestBoundsHeadLine(t *testing.T) {
	src := &endlessLine{size: 32 << 20}
	r := bufio.NewReader(src)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readRequest(r, nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errHeadTooLarge) {
		t.Fatalf("readRequest = %v; want %v", err, errHeadTooLarge)
	}
	if limit := maxHeadBytes + r.Size(); src.read > limit {
		t.Errorf("read %d bytes of the line; want at most %d", src.read, limit)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("readRequest allocated %d bytes; want < 1 MiB", got)
	}
}

// TestServeDropsEndlessHeadLine sends 1 MiB without a newline on one
// connection: the server must close it, and keep serving another.
func TestServeDropsEndlessHeadLine(t *testing.T) {
	files := DefaultFiles()
	url, shutdown := startServer(t, Config{Variant: VariantSuperGlue, Files: files})
	addr := strings.TrimPrefix(url, "http://")

	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = bad.Close() }()
	if err := bad.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = bad.Write(bytes.Repeat([]byte{'a'}, 1<<20)) }()

	good, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = good.Close() }()
	if err := good.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := good.Write(FormatRequest("/index.html", true)); err != nil {
		t.Fatalf("write: %v", err)
	}
	want := FormatResponse(200, files["/index.html"])
	got := make([]byte, len(want))
	if _, err := io.ReadFull(good, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("good connection got (%q, %v); want %q", got, err, want)
	}

	// The server sends nothing on the bad connection; it closes it, which
	// reads as EOF or a reset.
	n, err := bad.Read(make([]byte, 1))
	var ne net.Error
	if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("bad connection read = (%d, %v); want it closed", n, err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeWireBytes pins the exact bytes of a 200, a 404, a 400 (whose
// body is the parse error) and a Connection: close exchange on one
// connection.
func TestServeWireBytes(t *testing.T) {
	files := DefaultFiles()
	url, shutdown := startServer(t, Config{Variant: VariantSuperGlue, Files: files})
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	header := "HTTP/1.1 %s\r\nServer: superglue-ws\r\nContent-Length: %d\r\n\r\n%s"
	exchanges := []struct{ req, resp string }{
		{"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n",
			fmt.Sprintf(header, "200 OK", len(files["/index.html"]), files["/index.html"])},
		{"GET /missing.html HTTP/1.1\r\n\r\n",
			fmt.Sprintf(header, "404 Not Found", 9, "not found")},
		{"POST / HTTP/1.1\r\n\r\n",
			fmt.Sprintf(header, "400 Bad Request", 35, "webserver: unsupported method: POST")},
		{"GET /f0.html HTTP/1.1\r\nConnection: close\r\n\r\n",
			fmt.Sprintf(header, "200 OK", len(files["/f0.html"]), files["/f0.html"])},
	}
	for _, ex := range exchanges {
		if _, err := io.WriteString(conn, ex.req); err != nil {
			t.Fatalf("write %q: %v", ex.req, err)
		}
		got := make([]byte, len(ex.resp))
		if _, err := io.ReadFull(conn, got); err != nil || string(got) != ex.resp {
			t.Fatalf("%q: got (%q, %v); want %q", ex.req, got, err, ex.resp)
		}
	}
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("after Connection: close read = (%d, %v); want EOF", n, err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestBridgeOneWakeupPerArrival runs the bridge against a stand-in netif
// thread (pop, else Block) and counts the pops that found the queue empty.
// Each arrival wakes the thread once, so N sequential requests may see at
// most N+1 empty pops (one per idle period, plus the first); a second
// wake-up per arrival would latch on the already-runnable thread and
// double that.
func TestBridgeOneWakeupPerArrival(t *testing.T) {
	const n = 500
	k := kernel.New()
	br := newBridge(k)
	empty := 0
	tid, err := k.CreateThread(nil, "netif", 11, func(th *kernel.Thread) {
		for {
			req, stopped := br.pop()
			if req != nil {
				req.done <- struct{}{}
				continue
			}
			if stopped {
				return
			}
			empty++
			if err := k.Block(th); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	br.netifTID = tid
	k.SetIdleHandler(br.idle)
	simDone := make(chan error, 1)
	go func() { simDone <- k.Run() }()

	req := &inflight{done: make(chan struct{}, 1)}
	for i := 0; i < n; i++ {
		if err := br.submit(req); err != nil {
			t.Fatal(err)
		}
		<-req.done
	}
	br.stop()
	if err := <-simDone; err != nil {
		t.Fatalf("Run: %v", err)
	}
	close(br.arrivals)
	if empty > n+1 {
		t.Errorf("%d sequential requests saw %d empty pops; want at most %d", n, empty, n+1)
	}
}
