package storage

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hdmaps/internal/obs"
)

// TestClientHonorsRetryAfter: a shed 503 carrying Retry-After must be
// retried after the server's hint (capped by the per-attempt timeout),
// not the exponential schedule. The backoff policy here is set so slow
// (10s base) that falling back to it would blow the test deadline —
// success within it proves the hint won.
func TestClientHonorsRetryAfter(t *testing.T) {
	data := EncodeBinary(core_NewTinyMap(t))
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "30") // way beyond the attempt timeout
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set(ChecksumHeader, Checksum(data))
		_, _ = w.Write(data)
	}))
	t.Cleanup(srv.Close)

	client := &Client{
		Base:    srv.URL,
		Timeout: 100 * time.Millisecond, // caps the 30s hint
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   10 * time.Second, // exponential path would stall the test
			MaxDelay:    10 * time.Second,
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	got, err := client.GetTile(ctx, TileKey{Layer: "base", TX: 0, TY: 0})
	if err != nil {
		t.Fatalf("GetTile through a shedding server: %v", err)
	}
	elapsed := time.Since(start)
	if string(got) != string(data) {
		t.Error("payload mismatch after retry")
	}
	if hits.Load() != 2 {
		t.Errorf("hits = %d, want 2", hits.Load())
	}
	// Slept at least the capped hint, nowhere near the raw 30s.
	if elapsed < 100*time.Millisecond || elapsed > 2*time.Second {
		t.Errorf("retry slept %v; want ~100ms (hint capped by per-attempt timeout)", elapsed)
	}
}

// TestClientRetries429 verifies rate-limit responses are transient and
// the Retry-After hint is honored on them too.
func TestClientRetries429(t *testing.T) {
	data := EncodeBinary(core_NewTinyMap(t))
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0") // zero hint: exponential fallback
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set(ChecksumHeader, Checksum(data))
		_, _ = w.Write(data)
	}))
	t.Cleanup(srv.Close)
	client := &Client{
		Base:  srv.URL,
		Retry: RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	}
	if _, err := client.GetTile(context.Background(), TileKey{Layer: "base", TX: 0, TY: 0}); err != nil {
		t.Fatalf("429s not retried: %v", err)
	}
	if hits.Load() != 3 {
		t.Errorf("hits = %d, want 3", hits.Load())
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		// approx marks date-based values compared loosely.
		approx bool
	}{
		{"", 0, false},
		{"7", 7 * time.Second, false},
		{"0", 0, false},
		{"-3", 0, false},
		{"garbage", 0, false},
		{time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat), 3 * time.Second, true},
		{time.Now().Add(-time.Hour).UTC().Format(http.TimeFormat), 0, false},
	}
	for _, tc := range cases {
		got := parseRetryAfter(tc.in)
		if tc.approx {
			if got <= 0 || got > tc.want {
				t.Errorf("parseRetryAfter(%q) = %v, want (0, %v]", tc.in, got, tc.want)
			}
		} else if got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// countingWriter records WriteHeader calls so header-ordering bugs
// (double WriteHeader, headers set after the status is on the wire)
// are detectable.
type countingWriter struct {
	header      http.Header
	statusCalls []int
	body        strings.Builder
}

func newCountingWriter() *countingWriter { return &countingWriter{header: http.Header{}} }

func (c *countingWriter) Header() http.Header { return c.header }
func (c *countingWriter) WriteHeader(s int)   { c.statusCalls = append(c.statusCalls, s) }
func (c *countingWriter) Write(p []byte) (int, error) {
	if len(c.statusCalls) == 0 {
		c.statusCalls = append(c.statusCalls, http.StatusOK)
	}
	c.body.Write(p)
	return len(p), nil
}

func TestWriteJSONErrorSingleWriteHeader(t *testing.T) {
	w := newCountingWriter()
	obs.WriteJSONError(w, http.StatusBadRequest, "bad \x00 message \xff")
	if len(w.statusCalls) != 1 || w.statusCalls[0] != http.StatusBadRequest {
		t.Fatalf("WriteHeader calls = %v, want exactly [400]", w.statusCalls)
	}
	if ct := w.header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(w.body.String()), &body); err != nil {
		t.Errorf("error body is not JSON: %v (%q)", err, w.body.String())
	}
}

// TestWriteJSONEncodeFailure: an unmarshalable value must degrade to a
// single 500 JSON error — never a double WriteHeader.
func TestWriteJSONEncodeFailure(t *testing.T) {
	w := newCountingWriter()
	WriteJSON(w, func() {}) // funcs cannot marshal
	if len(w.statusCalls) != 1 || w.statusCalls[0] != http.StatusInternalServerError {
		t.Fatalf("WriteHeader calls = %v, want exactly [500]", w.statusCalls)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(w.body.String()), &body); err != nil || body.Error == "" {
		t.Errorf("encode-failure body = %q", w.body.String())
	}
}

func TestWriteJSONSuccessSingleWriteHeader(t *testing.T) {
	w := newCountingWriter()
	WriteJSON(w, []string{"base"})
	if len(w.statusCalls) != 1 || w.statusCalls[0] != http.StatusOK {
		t.Fatalf("WriteHeader calls = %v, want exactly [200]", w.statusCalls)
	}
	if w.header.Get(ChecksumHeader) == "" {
		t.Error("JSON response missing checksum header")
	}
}
