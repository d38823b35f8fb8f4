package eventlog

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"

	"testing"
	"time"

	"hdmaps/internal/obs"
)

func testLog(t *testing.T, cfg Config) *Log {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Types == nil {
		cfg.Types = Domain("node_dead", "node_revived", "sweep_round")
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendAndSince(t *testing.T) {
	clock := time.Unix(1000, 0)
	l := testLog(t, Config{Now: func() time.Time { return clock }})

	e1 := l.Append("node_dead", "n1", "probe timeout", "trace-1")
	clock = clock.Add(time.Second)
	e2 := l.Append("node_revived", "n1", "", "")
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("seqs = %d, %d; want 1, 2", e1.Seq, e2.Seq)
	}
	if got := l.Seq(); got != 2 {
		t.Fatalf("Seq() = %d, want 2", got)
	}

	all := l.Since(0, "", 0)
	if len(all) != 2 || all[0].Seq != 1 || all[1].Seq != 2 {
		t.Fatalf("Since(0) = %+v", all)
	}
	if all[0].Node != "n1" || all[0].Detail != "probe timeout" || all[0].TraceID != "trace-1" {
		t.Fatalf("event fields lost: %+v", all[0])
	}
	after := l.Since(1, "", 0)
	if len(after) != 1 || after[0].Seq != 2 {
		t.Fatalf("Since(1) = %+v", after)
	}
	deadOnly := l.Since(0, "node_dead", 0)
	if len(deadOnly) != 1 || deadOnly[0].Type != "node_dead" {
		t.Fatalf("Since(type=node_dead) = %+v", deadOnly)
	}
}

func TestUnknownTypeCollapsesToOther(t *testing.T) {
	reg := obs.NewRegistry()
	l := testLog(t, Config{Registry: reg})
	e := l.Append("Not A Type", "n1", "", "")
	if e.Type != TypeOther {
		t.Fatalf("undeclared type recorded as %q, want %q", e.Type, TypeOther)
	}
	if got := l.Since(0, TypeOther, 0); len(got) != 1 {
		t.Fatalf("Since(type=other) = %+v", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["eventlog.events.appended."+TypeOther] != 1 {
		t.Fatalf("appended counter for %q not bumped: %+v", TypeOther, snap.Counters)
	}
}

func TestRingEviction(t *testing.T) {
	l := testLog(t, Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		l.Append("sweep_round", "", "", "")
	}
	got := l.Since(0, "", 0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(got))
	}
	if got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("ring window = [%d, %d], want [7, 10]", got[0].Seq, got[3].Seq)
	}
	// max caps from the newest end.
	capped := l.Since(0, "", 2)
	if len(capped) != 2 || capped[0].Seq != 9 {
		t.Fatalf("Since(max=2) = %+v", capped)
	}
}

func TestBetween(t *testing.T) {
	clock := time.Unix(1000, 0)
	l := testLog(t, Config{Now: func() time.Time { return clock }})
	for i := 0; i < 5; i++ {
		l.Append("sweep_round", "", "", "")
		clock = clock.Add(10 * time.Second)
	}
	got := l.Between(time.Unix(1010, 0), time.Unix(1030, 0), 0)
	if len(got) != 3 || got[0].Seq != 2 || got[2].Seq != 4 {
		t.Fatalf("Between = %+v", got)
	}
}

func TestDurableReplayAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	l1 := testLog(t, Config{Path: path})
	l1.Append("node_dead", "n1", "", "")
	l1.Append("node_revived", "n1", "", "")
	if err := l1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Torn final write: a crash mid-append leaves a partial line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"ty`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := testLog(t, Config{Path: path})
	got := l2.Since(0, "", 0)
	if len(got) != 2 || got[0].Type != "node_dead" || got[1].Type != "node_revived" {
		t.Fatalf("replayed events = %+v", got)
	}
	// Sequence numbers continue after the durable tail, so ?since=
	// cursors held across the restart stay valid.
	e := l2.Append("sweep_round", "", "", "")
	if e.Seq != 3 {
		t.Fatalf("post-restart seq = %d, want 3", e.Seq)
	}
}

func TestDomainPanicsOnViolations(t *testing.T) {
	for _, bad := range [][]string{
		{"other"},
		{"Not-Valid"},
		{"dup", "dup"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Domain(%v) did not panic", bad)
				}
			}()
			Domain(bad...)
		}()
	}
}

func TestNewRejectsBadDomains(t *testing.T) {
	for _, bad := range [][]string{
		nil,
		{"other"},
		{"Not Valid"},
		{"dup", "dup"},
	} {
		if _, err := New(Config{Types: bad, Registry: obs.NewRegistry()}); err == nil {
			t.Fatalf("New(Types=%v) accepted a bad domain", bad)
		}
	}
}

func TestHandlerQueryHardening(t *testing.T) {
	l := testLog(t, Config{})
	l.Append("node_dead", "n1", "", "")
	h := Handler(l)

	cases := []struct {
		url  string
		code int
	}{
		{"/eventz", 200},
		{"/eventz?since=0", 200},
		{"/eventz?since=1&type=node_dead&max=5", 200},
		{"/eventz?type=other", 200},
		{"/eventz?since=abc", 400},
		{"/eventz?since=-1", 400},
		{"/eventz?since=99999999999999999999999999", 400},
		{"/eventz?since=9100000000000000000", 400}, // numeric but absurd
		{"/eventz?type=no_such_type", 400},
		{"/eventz?max=abc", 400},
		{"/eventz?max=-3", 400},
		{"/eventz?max=9999999999", 400},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", tc.url, nil))
		if rec.Code != tc.code {
			t.Errorf("%s: code = %d, want %d (body %s)", tc.url, rec.Code, tc.code, rec.Body.String())
			continue
		}
		if tc.code != 200 {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s: error body is not JSON {error}: %q", tc.url, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type = %q", tc.url, ct)
			}
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/eventz?since=1", nil))
	var doc Status
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode /eventz: %v", err)
	}
	if doc.Seq != 1 || len(doc.Events) != 0 {
		t.Fatalf("doc = %+v, want seq 1 and no events past cursor", doc)
	}
	if len(doc.Types) == 0 {
		t.Fatalf("doc.Types empty")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/eventz", nil))
	if rec.Code != 405 {
		t.Fatalf("POST code = %d, want 405", rec.Code)
	}
}

// TestConfigDefaults: zero and negative knobs resolve to the documented
// defaults, explicit values survive.
func TestConfigDefaults(t *testing.T) {
	epoch := time.Unix(42, 0)
	reg := obs.NewRegistry()
	explicit := Config{Types: []string{"a"}, Capacity: 9, Path: "j.jsonl", Registry: reg,
		Now: func() time.Time { return epoch }}
	cases := []struct {
		name     string
		in, want Config
	}{
		{"zero", Config{}, Config{Capacity: 1024, Registry: obs.Default()}},
		{"negative", Config{Capacity: -1}, Config{Capacity: 1024, Registry: obs.Default()}},
		{"explicit", explicit, explicit},
	}
	for _, tc := range cases {
		got := tc.in.withDefaults()
		if got.Now == nil || (tc.in.Now != nil && !got.Now().Equal(epoch)) {
			t.Fatalf("%s: clock not resolved", tc.name)
		}
		got.Now, tc.want.Now = nil, nil
		// DeepEqual looks through pointers; the registry must be the
		// very instance, not an equal-looking fresh one.
		if !reflect.DeepEqual(got, tc.want) || got.Registry != tc.want.Registry {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
