// Package webserver implements the evaluation's application workload
// (§V-E): a web server built from the system-level components — events for
// request notification, locks around the shared cache, the RAM filesystem
// for content, the memory manager for connection buffers, the timer for
// housekeeping, and the scheduler for worker flow control — together with
// an ab-style load generator and a plain ("Apache-like") baseline server
// that runs the same HTTP logic without the component substrate.
package webserver

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Request is one parsed HTTP request.
type Request struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string
}

// Parse errors.
var (
	// ErrMalformedRequest reports an unparseable request.
	ErrMalformedRequest = errors.New("webserver: malformed request")
	// ErrUnsupportedMethod reports a method other than GET/HEAD.
	ErrUnsupportedMethod = errors.New("webserver: unsupported method")
)

// ParseRequest parses an HTTP/1.x request head (through the blank line).
// It walks the head once: lines end at "\r\n", the request line splits at
// its two spaces, and the result's strings share one copy of the head.
func ParseRequest(raw []byte) (*Request, error) {
	head := raw
	if idx := bytes.Index(raw, []byte("\r\n\r\n")); idx >= 0 {
		head = raw[:idx]
	}
	line, rest, more := strings.Cut(string(head), "\r\n")
	if line == "" {
		return nil, fmt.Errorf("%w: empty request", ErrMalformedRequest)
	}
	method, target, ok1 := strings.Cut(line, " ")
	path, proto, ok2 := strings.Cut(target, " ")
	if !ok1 || !ok2 || strings.IndexByte(proto, ' ') >= 0 {
		return nil, fmt.Errorf("%w: bad request line %q", ErrMalformedRequest, line)
	}
	if method != "GET" && method != "HEAD" {
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedMethod, method)
	}
	if !strings.HasPrefix(proto, "HTTP/1.") {
		return nil, fmt.Errorf("%w: protocol %q", ErrMalformedRequest, proto)
	}
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("%w: path %q", ErrMalformedRequest, path)
	}
	req := &Request{Method: method, Path: path, Proto: proto, Headers: make(map[string]string)}
	for more {
		line, rest, more = strings.Cut(rest, "\r\n")
		if line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("%w: header %q", ErrMalformedRequest, line)
		}
		req.Headers[headerKey(strings.TrimSpace(name))] = strings.TrimSpace(value)
	}
	return req, nil
}

// headerKey lower-cases a header name. Host and Connection, which every
// request carries, match under ASCII-only case folding and map to shared
// constants without allocating; any other name goes through
// strings.ToLower. Unicode folding would be wrong here: strings.EqualFold
// matches "Hoſt" (U+017F) to "host", which ToLower does not.
func headerKey(name string) string {
	for _, k := range [...]string{"host", "connection"} {
		if asciiEqualFold(name, k) {
			return k
		}
	}
	return strings.ToLower(name)
}

// asciiEqualFold reports whether s equals the lower-case ASCII string lower
// when ASCII letters in s are folded to lower case.
func asciiEqualFold(s, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// FormatRequest renders a GET request for the load generator.
func FormatRequest(path string, keepAlive bool) []byte {
	conn := "keep-alive"
	if !keepAlive {
		conn = "close"
	}
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\nConnection: " + conn + "\r\n\r\n")
}

// statusText maps the status codes the server emits.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	default:
		return "Unknown"
	}
}

// FormatResponse renders an HTTP/1.1 response into one exactly-sized slice.
func FormatResponse(code int, body []byte) []byte {
	n := len("HTTP/1.1 ") + decimalLen(code) + 1 + len(statusText(code)) +
		len("\r\nServer: superglue-ws\r\nContent-Length: ") + decimalLen(len(body)) +
		len("\r\n\r\n") + len(body)
	return appendResponse(make([]byte, 0, n), code, body)
}

// appendResponse appends the response FormatResponse renders to dst.
func appendResponse(dst []byte, code int, body []byte) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, ' ')
	dst = append(dst, statusText(code)...)
	dst = append(dst, "\r\nServer: superglue-ws\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// decimalLen is the length of n in base 10, sign included.
func decimalLen(n int) int {
	l := 1
	if n < 0 {
		l++
	}
	for n <= -10 || n >= 10 {
		n /= 10
		l++
	}
	return l
}

// ParseResponseStatus extracts the status code of a rendered response.
func ParseResponseStatus(raw []byte) (int, error) {
	line := raw
	if idx := bytes.IndexByte(raw, '\r'); idx >= 0 {
		line = raw[:idx]
	}
	parts := strings.SplitN(string(line), " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/1.") {
		return 0, fmt.Errorf("%w: status line %q", ErrMalformedRequest, line)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, fmt.Errorf("%w: status %q", ErrMalformedRequest, parts[1])
	}
	return code, nil
}

// ResponseBody extracts the body of a rendered response.
func ResponseBody(raw []byte) []byte {
	if idx := bytes.Index(raw, []byte("\r\n\r\n")); idx >= 0 {
		return raw[idx+4:]
	}
	return nil
}
