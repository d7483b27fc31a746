package serve

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"bddbddb/internal/obs"
)

// Request-scoped observability: every request gets an ID (the client's
// X-Request-Id when it sends one, a fresh one otherwise) that is echoed
// in the response header, stamped into error bodies and resilience
// failures, and written to the JSON-lines access log — so a 422 or 429
// seen by a client joins back to the daemon-side record of what killed
// it.

// statusRecorder wraps the ResponseWriter to capture what the handler
// did (status, body size) and to carry the request's identity inward:
// handlers reach the ID and record the error class by asserting their
// writer back to *statusRecorder.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
	rid    string
	class  string // error taxonomy class, "" on success
}

func (rec *statusRecorder) WriteHeader(code int) {
	if rec.status == 0 {
		rec.status = code
	}
	rec.ResponseWriter.WriteHeader(code)
}

func (rec *statusRecorder) Write(b []byte) (int, error) {
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	n, err := rec.ResponseWriter.Write(b)
	rec.bytes += n
	return n, err
}

// requestID extracts the middleware-assigned ID from a handler's
// writer ("" when the handler runs outside the middleware, e.g. a
// bare mux in tests).
func requestID(w http.ResponseWriter) string {
	if rec, ok := w.(*statusRecorder); ok {
		return rec.rid
	}
	return ""
}

// setErrorClass records the taxonomy class for the access log.
func setErrorClass(w http.ResponseWriter, class string) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.class = class
	}
}

// ridFallback sequences IDs if the random source ever fails.
var ridFallback atomic.Int64

// newRequestID returns a fresh 16-hex-digit request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-" + hex.EncodeToString([]byte{byte(ridFallback.Add(1))})
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID bounds a client-supplied X-Request-Id: at most 64
// runes, graphic ASCII only (an access log is JSON-lines; a hostile ID
// must not smuggle newlines or control bytes into it).
func sanitizeRequestID(id string) string {
	if len(id) > 64 {
		id = id[:64]
	}
	var sb strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c > 0x20 && c < 0x7f {
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// queryEndpoints lists the paths whose 200s feed the per-endpoint
// latency histograms.
var queryEndpoints = map[string]bool{
	"pointsto":  true,
	"aliases":   true,
	"whodunnit": true,
	"query":     true,
}

// ServeHTTP is the middleware entry: assign the request ID, dispatch,
// then record the request — latency histogram (per endpoint, split by
// snapshot shape and cache outcome) and access-log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := sanitizeRequestID(r.Header.Get("X-Request-Id"))
	if rid == "" {
		rid = newRequestID()
	}
	rec := &statusRecorder{ResponseWriter: w, rid: rid}
	rec.Header().Set("X-Request-Id", rid)
	s.mux.ServeHTTP(rec, r)
	if rec.status == 0 {
		rec.status = http.StatusOK // header-only response
	}
	elapsed := time.Since(start)

	endpoint := strings.TrimPrefix(r.URL.Path, "/")
	cache := rec.Header().Get("X-Cache")
	if rec.status == http.StatusOK && queryEndpoints[endpoint] {
		sh := "ci"
		if s.current().sh.hasVPC {
			sh = "cs"
		}
		outcome := "miss"
		if cache == "hit" {
			outcome = "hit"
		}
		name := "serve.latency." + endpoint + "." + sh + "." + outcome
		s.reg.Histogram(name, obs.LatencyBuckets()).ObserveDuration(elapsed)
	}
	s.alog.Log(obs.AccessRecord{
		Time:       start.UTC(),
		RequestID:  rid,
		Method:     r.Method,
		Path:       r.URL.Path,
		Query:      r.URL.RawQuery,
		Status:     rec.status,
		Bytes:      rec.bytes,
		DurationMS: float64(elapsed.Microseconds()) / 1000,
		Cache:      cache,
		Class:      rec.class,
	})
}
