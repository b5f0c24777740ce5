package webserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// parseRequestReference is the straightforward Split-based request parser
// ParseRequest must agree with: same Request on success, same error text
// (the text is the body of the 400 response) on failure.
func parseRequestReference(raw []byte) (*Request, error) {
	head := raw
	if idx := bytes.Index(raw, []byte("\r\n\r\n")); idx >= 0 {
		head = raw[:idx]
	}
	lines := strings.Split(string(head), "\r\n")
	if len(lines) == 0 || lines[0] == "" {
		return nil, fmt.Errorf("%w: empty request", ErrMalformedRequest)
	}
	parts := strings.Split(lines[0], " ")
	if len(parts) != 3 {
		return nil, fmt.Errorf("%w: bad request line %q", ErrMalformedRequest, lines[0])
	}
	req := &Request{Method: parts[0], Path: parts[1], Proto: parts[2], Headers: make(map[string]string)}
	if req.Method != "GET" && req.Method != "HEAD" {
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedMethod, req.Method)
	}
	if !strings.HasPrefix(req.Proto, "HTTP/1.") {
		return nil, fmt.Errorf("%w: protocol %q", ErrMalformedRequest, req.Proto)
	}
	if !strings.HasPrefix(req.Path, "/") {
		return nil, fmt.Errorf("%w: path %q", ErrMalformedRequest, req.Path)
	}
	for _, line := range lines[1:] {
		if line == "" {
			break
		}
		ci := strings.Index(line, ":")
		if ci <= 0 {
			return nil, fmt.Errorf("%w: header %q", ErrMalformedRequest, line)
		}
		key := strings.ToLower(strings.TrimSpace(line[:ci]))
		req.Headers[key] = strings.TrimSpace(line[ci+1:])
	}
	return req, nil
}

// FuzzParseRequest checks ParseRequest against parseRequestReference over
// arbitrary bytes (run with `go test -fuzz=FuzzParseRequest
// ./internal/webserver`).
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	f.Add([]byte("HEAD /a.html HTTP/1.0\r\n\r\n"))
	f.Add([]byte("POST / HTTP/1.1\r\n\r\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte("GET  HTTP/1.1"))
	f.Add(FormatRequest("/index.html", true))
	f.Add([]byte("GET / HTTP/1.1\nHost: x\n\n"))                            // bare LF
	f.Add([]byte("GET / HTTP/1.1\n\n"))                                     // bare LF, one line
	f.Add([]byte("GET  / HTTP/1.1\r\n\r\n"))                                // double space
	f.Add([]byte("GET / HTTP/1.1 \r\n\r\n"))                                // trailing space
	f.Add([]byte("GET / HTTP/1.1\r\nHOST: x\r\nConnection :close\r\n\r\n")) // spellings
	f.Add([]byte("GET / HTTP/1.1\r\nHoſt: x\r\n\r\n"))                      // U+017F folds to s
	f.Add([]byte("GET / HTTP/1.1\r\nÄccept: y\r\n  Host\u0085: z\r\n\r\n")) // non-ASCII case and space
	f.Add([]byte("GET / HTTP/1.1\r\n: x\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nA: 1\r\n\r\nB: 2\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\n"))
	f.Add([]byte("\r\n\r\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := ParseRequest(raw)
		want, wantErr := parseRequestReference(raw)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseRequest(%q) error = %v; reference %v", raw, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("ParseRequest(%q) error = %q; reference %q", raw, err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("ParseRequest(%q) = %+v; reference %+v", raw, req, want)
		}
	})
}

// chunkReader hands out its data in reads of the sizes listed in sizes
// (cycled; a zero size reads one byte).
type chunkReader struct {
	data  []byte
	sizes []byte
	n     int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	size := 1
	if len(r.sizes) > 0 {
		size = max(1, int(r.sizes[r.n%len(r.sizes)]))
		r.n++
	}
	n := copy(p[:min(len(p), size)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// readHeads reads request heads off r until readRequest fails, returning
// the heads and the error that ended the stream.
func readHeads(r *bufio.Reader) ([]string, error) {
	var heads []string
	var buf []byte
	for {
		var err error
		if buf, err = readRequest(r, buf); err != nil {
			return heads, err
		}
		heads = append(heads, string(buf))
	}
}

// FuzzReadRequest checks the head reader over arbitrary bytes cut into
// arbitrary read sizes, behind a minimum-size bufio buffer so long lines
// arrive as several fragments, against reading the same bytes whole (run
// with `go test -fuzz=FuzzReadRequest ./internal/webserver`).
func FuzzReadRequest(f *testing.F) {
	f.Add(FormatRequest("/index.html", true), []byte{1})
	f.Add(append(FormatRequest("/a", true), FormatRequest("/b", false)...), []byte{3, 7})
	f.Add([]byte("GET / HTTP/1.1\nHost: a-header-longer-than-sixteen-bytes\n\n"), []byte{5, 0, 17})
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n"), []byte{2})
	f.Add([]byte("\n\r\n\r\r\n"), []byte{1, 2})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		want, wantErr := readHeads(bufio.NewReader(bytes.NewReader(data)))
		got, err := readHeads(bufio.NewReaderSize(&chunkReader{data: data, sizes: sizes}, 16))
		if !reflect.DeepEqual(got, want) || !errors.Is(err, wantErr) {
			t.Fatalf("chunked read = (%q, %v); whole read = (%q, %v)", got, err, want, wantErr)
		}
		if wantErr != io.EOF && wantErr != errHeadTooLarge {
			t.Fatalf("whole read ended with %v", wantErr)
		}
		if !bytes.HasPrefix(data, []byte(strings.Join(want, ""))) {
			t.Fatalf("heads %q are not a prefix of the input", want)
		}
	})
}

// FuzzResponseRoundTrip checks response framing against arbitrary bodies.
func FuzzResponseRoundTrip(f *testing.F) {
	f.Add(200, []byte("hello"))
	f.Add(404, []byte{})
	f.Add(500, []byte{0, 1, 2, 255})
	f.Fuzz(func(t *testing.T, code int, body []byte) {
		if code < 100 || code > 599 {
			return
		}
		resp := FormatResponse(code, body)
		got, err := ParseResponseStatus(resp)
		if err != nil || got != code {
			t.Fatalf("status round trip = (%d, %v); want %d", got, err, code)
		}
		if !bytes.Equal(ResponseBody(resp), body) {
			t.Fatalf("body round trip mismatch")
		}
		if len(resp) != cap(resp) {
			t.Fatalf("response rendered into %d bytes of a %d-byte slice", len(resp), cap(resp))
		}
	})
}
