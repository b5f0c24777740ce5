package main

import (
	"bufio"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"superglue/internal/webserver"
)

func TestCheckResponse(t *testing.T) {
	page := []byte("<p>page</p>")
	if err := checkResponse(200, []byte("<p>page</p>"), page); err != nil {
		t.Errorf("correct response refused: %v", err)
	}
	corrupted := []byte("<p>pagf</p>")
	if err := checkResponse(200, corrupted, page); !errors.Is(err, errBadResponse) {
		t.Errorf("corrupted body accepted: %v", err)
	}
	if err := checkResponse(200, page[:5], page); !errors.Is(err, errBadResponse) {
		t.Errorf("short body accepted: %v", err)
	}
	for _, code := range []int{404, 500, 503} {
		if err := checkResponse(code, page, page); !errors.Is(err, errBadResponse) {
			t.Errorf("status %d accepted: %v", code, err)
		}
	}
}

func TestReadResponse(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nServer: x\r\ncontent-length: 5\r\n\r\nhello" +
		"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"
	br := bufio.NewReader(strings.NewReader(raw))
	status, body, err := readResponse(br, nil)
	if err != nil || status != 200 || string(body) != "hello" {
		t.Fatalf("first response: %d %q %v", status, body, err)
	}
	status, body, err = readResponse(br, body)
	if err != nil || status != 404 || len(body) != 0 {
		t.Fatalf("second response: %d %q %v", status, body, err)
	}
	for _, bad := range []string{
		"HTTP/1.1 200 OK\r\n\r\nbody",                       // no length
		"HTTP/1.0 200 OK\r\nContent-Length: 1\r\n\r\nx",     // wrong protocol
		"HTTP/1.1 2x0 OK\r\nContent-Length: 1\r\n\r\nx",     // bad status
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\nx",    // bad length
		"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort", // truncated body
	} {
		if _, _, err := readResponse(bufio.NewReader(strings.NewReader(bad)), nil); err == nil {
			t.Errorf("readResponse accepted %q", bad)
		}
	}
}

// The server's own response for a request round-trips through the
// client's reader and passes the checker; a corrupted copy does not.
func TestServerResponsesPassTheChecker(t *testing.T) {
	s := newSite(webserver.DefaultFiles())
	for i, p := range s.paths {
		resp := webserver.FormatResponse(200, s.files[p])
		status, body, err := readResponse(bufio.NewReader(strings.NewReader(string(resp))), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkResponse(status, body, s.files[s.paths[i]]); err != nil {
			t.Errorf("%s: %v", p, err)
		}
		body[len(body)/2] ^= 1
		if err := checkResponse(status, body, s.files[p]); err == nil {
			t.Errorf("%s: corrupted body accepted", p)
		}
	}
}

func TestRequestMixIsSeeded(t *testing.T) {
	a, b := requestMix(1, 9), requestMix(1, 9)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different mixes")
	}
	if slices.Equal(a, requestMix(2, 9)) {
		t.Fatal("different seeds gave the same mix")
	}
	var seen [9]int
	for _, p := range a {
		seen[p]++
	}
	for p, n := range seen {
		if n < mixLen/9*8/10 {
			t.Errorf("page %d drawn %d times of %d", p, n, mixLen)
		}
	}
}

// A short live run: every response is checked, Serve returns nil after
// each session, and the traced half records one span tree per request.
func TestLiveSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	cfg := httpConfig{faultEvery: 50, replicas: 3, sessionRequests: 2 * windowRequests}
	run := runHTTP(cfg, 3, 200*time.Millisecond, true)
	attempted, failed, err := run.counts()
	if failed != 0 || err != nil {
		t.Fatalf("%d of %d requests failed: %v", failed, attempted, err)
	}
	for _, p := range []httpPhase{run.main, *run.traced} {
		if p.sessions == 0 || p.correct != p.sessions*cfg.sessionRequests || len(p.setups) != p.sessions {
			t.Fatalf("phase %+v", p)
		}
		if len(p.windows) != 2*p.sessions {
			t.Errorf("%d latency windows over %d sessions, want 2 a session", len(p.windows), p.sessions)
		}
	}
	if w, _, _, n := httpLayerSpans(run.spans); n != run.traced.correct || w <= 0 {
		t.Errorf("%d traced requests with write %v µs, want %d", n, w, run.traced.correct)
	}
}

// Each run opens only the connections and campaign workers its path
// needs: an untraced HTTP run starts no campaign, an untraced campaign
// opens no connection.
func TestUsesOnlyItsOwnPath(t *testing.T) {
	for _, c := range []struct {
		name           string
		trace          int
		conns, workers int
	}{
		{"http-keepalive", 0, clientConns, 0},
		{"http-recovery", 1, clientConns, campaignWorkers},
		{"swifi-table2", 0, 0, campaignWorkers},
		{"swifi-table2", 1, clientConns, campaignWorkers},
	} {
		if conns, workers := uses(workloads[c.name], c.trace); conns != c.conns || workers != c.workers {
			t.Errorf("%s trace %d: %d connections, %d workers; want %d, %d", c.name, c.trace, conns, workers, c.conns, c.workers)
		}
	}
}
