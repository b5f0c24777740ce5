package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"time"
)

// site is the web content the server is loaded with and the requests
// the load generator sends for it. The generator renders its requests
// and parses responses itself, so the checker shares no code with the
// server it checks.
type site struct {
	paths []string // sorted
	files map[string][]byte
	reqs  [][]byte // reqs[i] is the keep-alive GET of paths[i]
}

func newSite(files map[string][]byte) *site {
	s := &site{files: files}
	for p := range files {
		s.paths = append(s.paths, p)
	}
	sort.Strings(s.paths)
	for _, p := range s.paths {
		s.reqs = append(s.reqs, []byte("GET "+p+" HTTP/1.1\r\nHost: e2ebench\r\nConnection: keep-alive\r\n\r\n"))
	}
	return s
}

// mixLen is the length of the connection's request sequence; it cycles.
const mixLen = 1 << 16

// requestMix is the connection's sequence of page indexes: a uniform
// draw over the site's pages from a stream seeded only by the seed.
func requestMix(seed int64, pages int) []uint8 {
	rng := rand.New(rand.NewSource(seed))
	mix := make([]uint8, mixLen)
	for i := range mix {
		mix[i] = uint8(rng.Intn(pages))
	}
	return mix
}

// errBadResponse marks a response the checker refused.
var errBadResponse = errors.New("bad response")

// checkResponse accepts exactly a 200 whose body equals the page.
func checkResponse(status int, body, want []byte) error {
	if status != 200 {
		return fmt.Errorf("%w: status %d", errBadResponse, status)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%w: body of %d bytes differs from the %d-byte page", errBadResponse, len(body), len(want))
	}
	return nil
}

// maxBody bounds the body the client will read; the site's pages are
// far smaller.
const maxBody = 1 << 20

// readResponse reads one HTTP/1.1 response (status line, headers, a
// Content-Length body) into buf, which it may grow and returns.
func readResponse(br *bufio.Reader, buf []byte) (status int, body []byte, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, buf, err
	}
	line = bytes.TrimRight(line, "\r\n")
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) || len(line) < 12 {
		return 0, buf, fmt.Errorf("%w: status line %q", errBadResponse, line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, buf, fmt.Errorf("%w: status line %q", errBadResponse, line)
	}
	length := -1
	for {
		h, err := br.ReadSlice('\n')
		if err != nil {
			return 0, buf, err
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		name, value, ok := bytes.Cut(h, []byte(":"))
		if ok && bytes.EqualFold(bytes.TrimSpace(name), []byte("Content-Length")) {
			n, err := strconv.Atoi(string(bytes.TrimSpace(value)))
			if err != nil || n < 0 || n > maxBody {
				return 0, buf, fmt.Errorf("%w: content-length %q", errBadResponse, value)
			}
			length = n
		}
	}
	if length < 0 {
		return 0, buf, fmt.Errorf("%w: no content-length", errBadResponse)
	}
	if cap(buf) < length {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, buf, err
	}
	return status, buf, nil
}

// client is one keep-alive connection of the load generator.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 4096), buf: make([]byte, 0, 4096)}, nil
}

// timing is where one request's time went: writing it, waiting for the
// first response byte, and reading the rest.
type timing struct {
	start, written, first, done time.Time
}

// do sends req and reads one response; with spans set it also stamps
// the first response byte. The body is valid until the next call.
func (c *client) do(req []byte, spans bool) (status int, body []byte, tm timing, err error) {
	tm.start = time.Now()
	if _, err = c.conn.Write(req); err != nil {
		return 0, nil, tm, err
	}
	if spans {
		tm.written = time.Now()
		if _, err = c.br.Peek(1); err != nil {
			return 0, nil, tm, err
		}
		tm.first = time.Now()
	}
	status, c.buf, err = readResponse(c.br, c.buf)
	tm.done = time.Now()
	return status, c.buf, tm, err
}

func (c *client) close() { _ = c.conn.Close() }
