package notify

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hdmaps/internal/obs"
)

// memSink records deliveries and fails the first failN attempts per
// notification... actually per call, which is what retry tests need.
type memSink struct {
	name  string
	mu    sync.Mutex
	got   []Notification
	failN int32 // fail this many calls before succeeding
	calls int32
}

func (s *memSink) Name() string { return s.name }

func (s *memSink) Deliver(_ context.Context, n Notification) error {
	c := atomic.AddInt32(&s.calls, 1)
	if c <= atomic.LoadInt32(&s.failN) {
		return errors.New("injected failure")
	}
	s.mu.Lock()
	s.got = append(s.got, n)
	s.mu.Unlock()
	return nil
}

func (s *memSink) notifications() []Notification {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Notification(nil), s.got...)
}

func noSleep(context.Context, time.Duration) {}

func newNotifier(t *testing.T, cfg Config) *Notifier {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Sleep == nil {
		cfg.Sleep = noSleep
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

func transition(obj, from, to string, at time.Time) Notification {
	return Notification{Objective: obj, From: from, To: to, At: at}
}

func TestDeliveryAndLedger(t *testing.T) {
	sink := &memSink{name: "mem"}
	n := newNotifier(t, Config{Sinks: []Sink{sink}})
	base := time.Unix(1000, 0)
	n.Notify(transition("slo.read.availability", "ok", "critical", base))
	n.Close()

	got := sink.notifications()
	if len(got) != 1 || got[0].To != "critical" {
		t.Fatalf("deliveries = %+v", got)
	}
	l := n.Ledger()
	if l.Fired != 1 || l.Delivered != 1 || l.Dropped != 0 || l.Pending != 0 {
		t.Fatalf("ledger = %+v", l)
	}
	if l.Fired != l.Delivered+l.Dropped+l.Pending {
		t.Fatalf("ledger unbalanced: %+v", l)
	}
}

func TestRetryThenDeliver(t *testing.T) {
	sink := &memSink{name: "mem", failN: 2}
	n := newNotifier(t, Config{Sinks: []Sink{sink}, MaxAttempts: 3})
	n.Notify(transition("slo.read.availability", "ok", "warning", time.Unix(1000, 0)))
	n.Close()
	if len(sink.notifications()) != 1 {
		t.Fatalf("notification not delivered after retries")
	}
	l := n.Ledger()
	if l.Delivered != 1 || l.Dropped != 0 {
		t.Fatalf("ledger = %+v", l)
	}
}

func TestRetriesExhaustedDrops(t *testing.T) {
	sink := &memSink{name: "mem", failN: 1 << 30}
	n := newNotifier(t, Config{Sinks: []Sink{sink}, MaxAttempts: 2})
	n.Notify(transition("slo.read.availability", "ok", "warning", time.Unix(1000, 0)))
	n.Close()
	l := n.Ledger()
	if l.Fired != 1 || l.Dropped != 1 || l.Delivered != 0 || l.Pending != 0 {
		t.Fatalf("ledger = %+v", l)
	}
	if atomic.LoadInt32(&sink.calls) != 2 {
		t.Fatalf("attempts = %d, want 2", sink.calls)
	}
}

func TestDedupSuppressesRepeatedState(t *testing.T) {
	sink := &memSink{name: "mem"}
	n := newNotifier(t, Config{Sinks: []Sink{sink}, MinHold: time.Minute})
	base := time.Unix(1000, 0)
	n.Notify(transition("slo.a.b", "ok", "warning", base))
	// Same target state again, even after the hold expires: the
	// operator already knows — dedup, not flap damping.
	n.Notify(transition("slo.a.b", "ok", "warning", base.Add(time.Hour)))
	n.Close()
	if len(sink.notifications()) != 1 {
		t.Fatalf("deliveries = %+v", sink.notifications())
	}
	if l := n.Ledger(); l.SuppressedDedup != 1 || l.SuppressedFlap != 0 {
		t.Fatalf("ledger = %+v", l)
	}
}

func TestFlapDampingHoldsOscillationToOne(t *testing.T) {
	sink := &memSink{name: "mem"}
	n := newNotifier(t, Config{Sinks: []Sink{sink}, MinHold: time.Minute})
	base := time.Unix(1000, 0)
	// An objective oscillating every second: only the first transition
	// may page.
	for i := 0; i < 20; i++ {
		to, from := "warning", "ok"
		if i%2 == 1 {
			to, from = "ok", "warning"
		}
		n.Notify(transition("slo.a.b", from, to, base.Add(time.Duration(i)*time.Second)))
	}
	n.Close()
	if len(sink.notifications()) != 1 {
		t.Fatalf("flapping produced %d notifications, want 1", len(sink.notifications()))
	}
	// The oscillation is absorbed by both stages: recoveries inside the
	// hold are flap-damped, re-degradations to the already-notified
	// state are deduped. Every transition past the first is suppressed.
	l := n.Ledger()
	if l.SuppressedFlap == 0 || l.SuppressedDedup == 0 || l.SuppressedFlap+l.SuppressedDedup != 19 {
		t.Fatalf("suppression split = dedup %d + flap %d, want 19 total (%+v)", l.SuppressedDedup, l.SuppressedFlap, l)
	}
	// After the hold expires a genuinely new state change pages again.
	sink2 := &memSink{name: "mem"}
	n2 := newNotifier(t, Config{Sinks: []Sink{sink2}, MinHold: time.Minute})
	n2.Notify(transition("slo.a.b", "ok", "warning", base))
	n2.Notify(transition("slo.a.b", "warning", "ok", base.Add(2*time.Minute)))
	n2.Close()
	if len(sink2.notifications()) != 2 {
		t.Fatalf("post-hold recovery suppressed: %+v", sink2.notifications())
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	block := make(chan struct{})
	slow := sinkFunc{name: "slow", fn: func(ctx context.Context, _ Notification) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}
	n := newNotifier(t, Config{Sinks: []Sink{slow}, QueueDepth: 1, MaxAttempts: 1, Timeout: 5 * time.Second, MinHold: time.Nanosecond})
	base := time.Unix(1000, 0)
	states := []string{"warning", "critical"}
	// First fills the in-flight slot, second fills the queue, the rest
	// must overflow into dropped.
	for i := 0; i < 6; i++ {
		n.Notify(transition("slo.a.b", "ok", states[i%2], base.Add(time.Duration(i)*time.Hour)))
	}
	deadline := time.Now().Add(2 * time.Second)
	for n.Ledger().Dropped < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(block)
	n.Close()
	l := n.Ledger()
	if l.Fired != 6 || l.Fired != l.Delivered+l.Dropped+l.Pending || l.Pending != 0 {
		t.Fatalf("ledger = %+v", l)
	}
	if l.Dropped < 3 {
		t.Fatalf("dropped = %d, want >= 3 (%+v)", l.Dropped, l)
	}
}

type sinkFunc struct {
	name string
	fn   func(context.Context, Notification) error
}

func (s sinkFunc) Name() string                                      { return s.name }
func (s sinkFunc) Deliver(ctx context.Context, n Notification) error { return s.fn(ctx, n) }

func TestBadSinkNamesRejected(t *testing.T) {
	for _, bad := range []string{"", "other", "Bad Name", "web-hook"} {
		_, err := New(Config{Sinks: []Sink{&memSink{name: bad}}, Registry: obs.NewRegistry()})
		if err == nil {
			t.Errorf("sink name %q accepted", bad)
		}
	}
	_, err := New(Config{Sinks: []Sink{&memSink{name: "dup"}, &memSink{name: "dup"}}, Registry: obs.NewRegistry()})
	if err == nil {
		t.Errorf("duplicate sink names accepted")
	}
	if _, err := New(Config{Registry: obs.NewRegistry()}); err == nil {
		t.Errorf("empty sink list accepted")
	}
}

func TestWebhookSinkPostsJSONWithTraceHeader(t *testing.T) {
	var mu sync.Mutex
	var bodies []Notification
	var traces []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var n Notification
		if err := json.NewDecoder(r.Body).Decode(&n); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		mu.Lock()
		bodies = append(bodies, n)
		traces = append(traces, r.Header.Get(obs.TraceHeader))
		mu.Unlock()
	}))
	defer srv.Close()

	s := NewWebhookSink("webhook", srv.URL, srv.Client())
	err := s.Deliver(context.Background(), Notification{
		Objective: "slo.read.availability", From: "ok", To: "critical",
		At: time.Unix(1000, 0), ExemplarTraceID: "trace-xyz",
	})
	if err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 1 || bodies[0].Objective != "slo.read.availability" || traces[0] != "trace-xyz" {
		t.Fatalf("webhook saw %+v traces %v", bodies, traces)
	}
}

func TestWebhookSinkNon2xxFails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusBadGateway)
	}))
	defer srv.Close()
	s := NewWebhookSink("webhook", srv.URL, srv.Client())
	if err := s.Deliver(context.Background(), Notification{}); err == nil {
		t.Fatalf("502 delivery did not fail")
	}
}

func TestExecSink(t *testing.T) {
	s := NewExecSink("pager_script", "sh", "-c", "grep -q critical")
	err := s.Deliver(context.Background(), Notification{Objective: "slo.a.b", To: "critical"})
	if err != nil {
		t.Fatalf("exec sink: %v", err)
	}
	fail := NewExecSink("pager_script", "sh", "-c", "exit 3")
	if err := fail.Deliver(context.Background(), Notification{}); err == nil {
		t.Fatalf("failing command did not fail delivery")
	}
}

func TestLogSinkNeverFails(t *testing.T) {
	s := NewLogSink("journal", nil)
	if err := s.Deliver(context.Background(), Notification{Objective: "slo.a.b"}); err != nil {
		t.Fatalf("log sink: %v", err)
	}
}

// TestConfigDefaults: zero and negative knobs resolve to the documented
// defaults, explicit values (clock and sleep included) survive.
func TestConfigDefaults(t *testing.T) {
	epoch := time.Unix(42, 0)
	var slept time.Duration
	reg := obs.NewRegistry()
	explicit := Config{
		MaxAttempts: 5, Backoff: time.Second, Timeout: 3 * time.Second, QueueDepth: 7,
		MinHold: time.Hour, Registry: reg,
		Now:   func() time.Time { return epoch },
		Sleep: func(_ context.Context, d time.Duration) { slept = d },
	}
	defaults := Config{
		MaxAttempts: 3, Backoff: 50 * time.Millisecond, Timeout: 2 * time.Second,
		QueueDepth: 64, MinHold: time.Minute, Registry: obs.Default(),
	}
	cases := []struct {
		name     string
		in, want Config
	}{
		{"zero", Config{}, defaults},
		{"negative", Config{MaxAttempts: -1, Backoff: -1, Timeout: -1, QueueDepth: -1, MinHold: -1}, defaults},
		{"explicit", explicit, explicit},
	}
	for _, tc := range cases {
		got := tc.in.withDefaults()
		if got.Now == nil || got.Sleep == nil {
			t.Fatalf("%s: clock or sleep left nil", tc.name)
		}
		if tc.in.Now == nil {
			// The default sleep waits out d, or returns once ctx is done.
			start := time.Now()
			got.Sleep(context.Background(), 20*time.Millisecond)
			if waited := time.Since(start); waited < 20*time.Millisecond {
				t.Fatalf("%s: default sleep returned after %v", tc.name, waited)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			got.Sleep(ctx, time.Hour)
		} else if !got.Now().Equal(epoch) {
			t.Fatalf("%s: explicit clock replaced", tc.name)
		} else if got.Sleep(context.Background(), 9); slept != 9 {
			t.Fatalf("%s: explicit sleep replaced", tc.name)
		}
		got.Now, got.Sleep, tc.want.Now, tc.want.Sleep = nil, nil, nil, nil
		// DeepEqual looks through pointers; the registry must be the
		// very instance, not an equal-looking fresh one.
		if !reflect.DeepEqual(got, tc.want) || got.Registry != tc.want.Registry {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
