package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// RequestIDHeader carries the correlation id. Inbound values (e.g. minted
// by a reverse proxy, or a client's own tracing layer) are accepted after
// sanitization so one id follows a request across hops; absent or invalid
// values are replaced with a fresh one.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds accepted inbound ids; anything longer is treated
// as hostile and replaced.
const maxRequestIDLen = 64

// NewRequestID mints a 16-hex-digit random id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a fixed
		// marker rather than taking requests down over a log id.
		return "rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID returns id if it is safe to echo into headers and
// logs — non-empty, bounded, and [A-Za-z0-9._-] only — and "" otherwise.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// accessWriter observes the status and byte count that actually went out,
// forwarding Flush so NDJSON sweep streams keep streaming through the
// middleware.
type accessWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (a *accessWriter) WriteHeader(code int) {
	if a.status == 0 {
		a.status = code
	}
	a.ResponseWriter.WriteHeader(code)
}

func (a *accessWriter) Write(p []byte) (int, error) {
	if a.status == 0 {
		a.status = http.StatusOK
	}
	n, err := a.ResponseWriter.Write(p)
	a.bytes += n
	return n, err
}

func (a *accessWriter) Flush() {
	if f, ok := a.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// accessLine is one structured access-log record, written as a single JSON
// line so log pipelines can parse it without a custom format.
type accessLine struct {
	Time      string  `json:"time"`
	RequestID string  `json:"request_id"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Status    int     `json:"status"`
	Bytes     int     `json:"bytes"`
	Seconds   float64 `json:"seconds"`
	Cache     string  `json:"cache,omitempty"`
	Remote    string  `json:"remote,omitempty"`
}

// WithRequestID wraps a handler with request-id assignment and (when logw
// is non-nil) structured JSON access logging. The id is placed on the
// response header before the wrapped handler runs, so error bodies (via
// writeError) and success responses both carry it.
func WithRequestID(next http.Handler, logw io.Writer) http.Handler {
	var mu sync.Mutex
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		aw := &accessWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(aw, r)
		if logw == nil {
			return
		}
		line := accessLine{
			Time:      start.UTC().Format(time.RFC3339Nano),
			RequestID: id,
			Method:    r.Method,
			Path:      r.URL.Path,
			Status:    aw.status,
			Bytes:     aw.bytes,
			Seconds:   time.Since(start).Seconds(),
			Cache:     aw.Header().Get("X-Cache"),
			Remote:    r.RemoteAddr,
		}
		b, err := json.Marshal(line)
		if err != nil {
			return
		}
		b = append(b, '\n')
		mu.Lock()
		logw.Write(b)
		mu.Unlock()
	})
}
