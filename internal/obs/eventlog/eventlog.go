// Package eventlog is the cluster's structured event journal: a
// bounded in-memory ring plus an optional durable append-only JSONL
// file, capturing the discrete things that happen to a fleet — node
// deaths and revivals, membership changes, sweep rounds, hint drains,
// rollbacks, commit-gate rejections, breaker trips, alert transitions.
// Metrics say *how much*; the journal says *what and when*, with
// trace-ID links back to /tracez. Every event type belongs to an
// enumerated domain declared at construction (the same bounded-
// cardinality discipline as label Vecs); unknown types collapse to the
// reserved "other" so a typo can never grow the domain. The journal is
// served as /eventz?since=&type= and mined by the incident manager for
// causal timelines.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"hdmaps/internal/obs"
)

// TypeOther is the reserved overflow event type: events appended with
// a type outside the declared domain are recorded under it rather than
// minting a new type. Declaring it in a domain is an error (obslint
// enforces the same for literal domains).
const TypeOther = obs.OtherLabel

// The standard event types emitted by the shipped pipelines. One
// journal is typically shared across the router, ingest, and
// resilience layers (the same way they share a Registry), so the
// canonical domain lives here rather than in any one emitter.
const (
	TypeNodeDead      = "node_dead"
	TypeNodeRevived   = "node_revived"
	TypeNodeJoin      = "node_join"
	TypeNodeLeave     = "node_leave"
	TypeSweepRound    = "sweep_round"
	TypeHintDrain     = "hint_drain"
	TypeRollback      = "rollback"
	TypeCommitReject  = "commit_gate_reject"
	TypeBreakerOpen   = "breaker_open"
	TypeBreakerClose  = "breaker_close"
	TypeDrainStart    = "drain_start"
	TypeDrainDone     = "drain_done"
	TypeHandlerPanic  = "handler_panic"
	TypeAlertOK       = "alert_ok"
	TypeAlertWarning  = "alert_warning"
	TypeAlertCritical = "alert_critical"
)

// StandardTypes is the full shipped domain — what a journal shared by
// every pipeline should declare.
func StandardTypes() []string {
	return Domain(
		TypeNodeDead, TypeNodeRevived, TypeNodeJoin, TypeNodeLeave,
		TypeSweepRound, TypeHintDrain,
		TypeRollback, TypeCommitReject, TypeBreakerOpen, TypeBreakerClose,
		TypeDrainStart, TypeDrainDone, TypeHandlerPanic,
		TypeAlertOK, TypeAlertWarning, TypeAlertCritical,
	)
}

// Event is one journal entry. Seq is a strictly increasing sequence
// number scoped to the journal (restarts resume after the last durable
// entry), which makes ?since= cursors stable across the ring's
// eviction horizon.
type Event struct {
	Seq     uint64    `json:"seq"`
	At      time.Time `json:"at"`
	Type    string    `json:"type"`
	Node    string    `json:"node,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	TraceID string    `json:"trace_id,omitempty"`
}

// Domain validates an enumerated event-type domain at declaration
// time: every element must satisfy the label-value grammar and the
// reserved "other" may not be declared (it is always implied).
// It panics on violation — domains are compile-time constants and a
// bad one is a programming error, exactly like a bad metric name.
// obslint checks literal arguments to Domain statically.
func Domain(types ...string) []string {
	seen := make(map[string]bool, len(types))
	for _, t := range types {
		if t == TypeOther {
			panic(fmt.Sprintf("eventlog: domain declares reserved type %q", TypeOther))
		}
		if err := obs.ValidateLabelValue(t); err != nil {
			panic(fmt.Sprintf("eventlog: bad event type %q: %v", t, err))
		}
		if seen[t] {
			panic(fmt.Sprintf("eventlog: duplicate event type %q", t))
		}
		seen[t] = true
	}
	return types
}

// Config configures a journal.
type Config struct {
	// Types is the enumerated event-type domain (required, non-empty).
	// Build it with Domain so violations fail at construction.
	Types []string
	// Capacity bounds the in-memory ring (default 1024).
	Capacity int
	// Path, when set, appends every event to a durable JSONL file; on
	// reopen the tail is replayed into the ring and sequence numbers
	// continue after the last durable entry.
	Path string
	// Registry receives journal self-metrics (default obs.Default()).
	Registry *obs.Registry
	// Now overrides the clock (tests).
	Now func() time.Time
}

// withDefaults resolves every zero knob to its documented default,
// once, at construction.
func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Log is the journal. All methods are safe for concurrent use.
type Log struct {
	cfg   Config
	types map[string]bool

	mu   sync.Mutex
	ring []Event // fixed capacity, oldest evicted first
	head int     // next write slot
	n    int     // live entries
	seq  uint64  // last assigned sequence number
	file *os.File

	appended   *obs.CounterVec
	fileErrors *obs.Counter
}

// New builds a journal, replaying the durable file's tail into the
// ring when Path names an existing journal.
func New(cfg Config) (*Log, error) {
	if len(cfg.Types) == 0 {
		return nil, fmt.Errorf("eventlog: config needs a non-empty Types domain")
	}
	cfg = cfg.withDefaults()
	l := &Log{
		cfg:   cfg,
		types: make(map[string]bool, len(cfg.Types)),
		ring:  make([]Event, cfg.Capacity),
	}
	for _, t := range cfg.Types {
		if t == TypeOther {
			return nil, fmt.Errorf("eventlog: domain declares reserved type %q", TypeOther)
		}
		if err := obs.ValidateLabelValue(t); err != nil {
			return nil, fmt.Errorf("eventlog: bad event type %q: %w", t, err)
		}
		if l.types[t] {
			return nil, fmt.Errorf("eventlog: duplicate event type %q", t)
		}
		l.types[t] = true
	}
	l.appended = cfg.Registry.CounterVec("eventlog.events.appended", cfg.Types)
	l.fileErrors = cfg.Registry.Counter("eventlog.file.errors")
	if cfg.Path != "" {
		if err := l.replay(cfg.Path); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("eventlog: open journal file: %w", err)
		}
		l.file = f
	}
	return l, nil
}

// replay loads an existing journal file's tail into the ring and
// resumes the sequence counter after its last entry. Corrupt lines
// (torn final write after a crash) are skipped, not fatal: a journal
// that refuses to open after a crash is worse than one missing its
// final event.
func (l *Log) replay(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("eventlog: replay journal file: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if json.Unmarshal(line, &e) != nil || e.Seq == 0 {
			l.fileErrors.Inc()
			continue
		}
		if !l.types[e.Type] {
			e.Type = TypeOther
		}
		l.push(e)
		if e.Seq > l.seq {
			l.seq = e.Seq
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("eventlog: replay journal file: %w", err)
	}
	return nil
}

// push inserts into the ring, evicting the oldest entry at capacity.
// Caller holds l.mu (or is still single-threaded in New).
func (l *Log) push(e Event) {
	l.ring[l.head] = e
	l.head = (l.head + 1) % len(l.ring)
	if l.n < len(l.ring) {
		l.n++
	}
}

// Append records one event, collapsing undeclared types to the
// reserved "other", and returns the stored entry (with sequence number
// and timestamp stamped). File-write failures are counted, never
// fatal: the ring is the source of truth for the live process, the
// file is best-effort durability.
func (l *Log) Append(typ, node, detail, traceID string) Event {
	l.mu.Lock()
	if !l.types[typ] {
		typ = TypeOther
	}
	l.seq++
	e := Event{Seq: l.seq, At: l.cfg.Now(), Type: typ, Node: node, Detail: detail, TraceID: traceID}
	l.push(e)
	var line []byte
	if l.file != nil {
		line, _ = json.Marshal(e)
	}
	file := l.file
	l.mu.Unlock()

	l.appended.With(typ).Inc()
	if file != nil {
		if _, err := file.Write(append(line, '\n')); err != nil {
			l.fileErrors.Inc()
		}
	}
	return e
}

// Seq reports the last assigned sequence number (0 when empty).
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Types returns the declared domain plus the reserved "other".
func (l *Log) Types() []string {
	out := append(append([]string(nil), l.cfg.Types...), TypeOther)
	sort.Strings(out)
	return out
}

// HasType reports whether typ is queryable (declared or "other").
func (l *Log) HasType(typ string) bool {
	return typ == TypeOther || l.types[typ]
}

// Since returns events with Seq > since, oldest first, optionally
// filtered by type ("" = all) and capped at max entries (0 = all live
// entries). Events older than the ring horizon are gone — callers page
// forward with the last Seq they saw.
func (l *Log) Since(since uint64, typ string, max int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	start := l.head - l.n
	if start < 0 {
		start += len(l.ring)
	}
	for i := 0; i < l.n; i++ {
		e := l.ring[(start+i)%len(l.ring)]
		if e.Seq <= since {
			continue
		}
		if typ != "" && e.Type != typ {
			continue
		}
		out = append(out, e)
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Between returns events with At in [from, to], oldest first — the
// incident manager's causal-window query.
func (l *Log) Between(from, to time.Time, max int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	start := l.head - l.n
	if start < 0 {
		start += len(l.ring)
	}
	for i := 0; i < l.n; i++ {
		e := l.ring[(start+i)%len(l.ring)]
		if e.At.Before(from) || e.At.After(to) {
			continue
		}
		out = append(out, e)
	}
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// Close releases the durable file (the ring stays readable).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	err := l.file.Close()
	l.file = nil
	return err
}

// Status is the /eventz document.
type Status struct {
	GeneratedAt time.Time `json:"generated_at"`
	Seq         uint64    `json:"seq"`
	Types       []string  `json:"types"`
	Events      []Event   `json:"events"`
}

// maxSince bounds ?since= to something a ring journal could ever have
// assigned in a process lifetime; beyond it the cursor is garbage, not
// a position.
const maxSince = 1 << 53

// Handler serves the journal as /eventz?since=&type=&max=. Bad query
// parameters — non-numeric, negative, or absurd since/max, or a type
// outside the declared domain — are 400 JSON errors, never silently
// coerced.
func Handler(l *Log) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			obs.WriteJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		q := r.URL.Query()
		var since uint64
		if v := q.Get("since"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil || n > maxSince {
				obs.WriteJSONError(w, http.StatusBadRequest, "bad since: want a cursor in [0, 2^53], got "+strconv.Quote(v))
				return
			}
			since = n
		}
		typ := q.Get("type")
		if typ != "" && !l.HasType(typ) {
			obs.WriteJSONError(w, http.StatusBadRequest, "unknown event type "+strconv.Quote(typ))
			return
		}
		max := 0
		if v := q.Get("max"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 || n > 1<<20 {
				obs.WriteJSONError(w, http.StatusBadRequest, "bad max: want an integer in [0, 2^20], got "+strconv.Quote(v))
				return
			}
			max = n
		}
		doc := Status{
			GeneratedAt: l.cfg.Now(),
			Seq:         l.Seq(),
			Types:       l.Types(),
			Events:      l.Since(since, typ, max),
		}
		obs.WriteJSON(w, doc, nil)
	})
}
