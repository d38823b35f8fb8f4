// Package notify is the push half of the alerting plane: it turns SLO
// state transitions into operator-facing notifications delivered
// through pluggable sinks (webhook POST, command exec, JSON log).
// Delivery is asynchronous per sink with bounded queues, per-attempt
// retry with exponential backoff, and exact ledger accounting —
// fired == delivered + dropped + pending, with pending draining to
// zero at quiesce — so a soak can prove no notification was lost
// silently. Two suppression stages sit in front of the ledger: dedup
// (the operator already knows this state) and flap damping (a minimum
// hold between notifications per objective, so an oscillating
// objective produces one page, not one per flap).
package notify

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hdmaps/internal/obs"
)

// Notification is one alert transition on its way to an operator.
type Notification struct {
	Objective   string    `json:"objective"`
	Description string    `json:"description,omitempty"`
	From        string    `json:"from"`
	To          string    `json:"to"`
	At          time.Time `json:"at"`
	// BurnFast/BurnSlow snapshot the burn rates at transition time.
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// ExemplarTraceID resolves on /tracez to a request that spent the
	// objective's budget.
	ExemplarTraceID string `json:"exemplar_trace_id,omitempty"`
}

// Sink delivers one notification synchronously; the notifier owns
// queueing, retries, and accounting. Name is the sink's ledger and
// metric identity — it must satisfy the label-value grammar and may
// not be the reserved "other" (obslint checks literal constructor
// names statically).
type Sink interface {
	Name() string
	Deliver(ctx context.Context, n Notification) error
}

// Config configures a Notifier.
type Config struct {
	// Sinks receive every non-suppressed notification (at least one).
	Sinks []Sink
	// MaxAttempts bounds delivery tries per sink (default 3); the last
	// failure drops the notification into the ledger's dropped column.
	MaxAttempts int
	// Backoff is the first retry delay, doubling per attempt
	// (default 50ms).
	Backoff time.Duration
	// Timeout bounds one delivery attempt (default 2s).
	Timeout time.Duration
	// QueueDepth bounds each sink's pending queue (default 64); an
	// overflowing notification is dropped immediately (fired+dropped).
	QueueDepth int
	// MinHold is the flap-damping window: after a notification for an
	// objective, further transitions of that objective are suppressed
	// until MinHold has elapsed (default 1m).
	MinHold time.Duration
	// Registry receives notifier self-metrics (default obs.Default()).
	Registry *obs.Registry
	// Now overrides the clock (tests).
	Now func() time.Time
	// Sleep overrides the backoff sleep (tests); it must respect ctx.
	Sleep func(ctx context.Context, d time.Duration)
}

// withDefaults resolves every zero knob to its documented default,
// once, at construction.
func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MinHold <= 0 {
		c.MinHold = time.Minute
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = sleep
	}
	return c
}

// sleep waits d or until ctx is done — the default backoff sleep.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// sinkWorker is one sink's queue, goroutine, and ledger cells.
type sinkWorker struct {
	sink Sink
	ch   chan Notification

	fired     *obs.Counter
	delivered *obs.Counter
	dropped   *obs.Counter
	attempts  *obs.Counter
	retries   *obs.Counter
	pending   atomic.Int64
}

// lastNotify is the per-objective suppression record: the last state
// actually notified and when.
type lastNotify struct {
	state string
	at    time.Time
}

// Notifier fans alert transitions out to its sinks. Safe for
// concurrent use; Notify never blocks on delivery.
type Notifier struct {
	cfg     Config
	workers []*sinkWorker
	wg      sync.WaitGroup

	mu     sync.Mutex
	last   map[string]lastNotify
	closed bool

	seen         *obs.Counter
	dedupSupp    *obs.Counter
	flapSupp     *obs.Counter
	pendingGauge *obs.Gauge
}

// New validates sink names, registers the ledger metrics, and starts
// one delivery goroutine per sink.
func New(cfg Config) (*Notifier, error) {
	if len(cfg.Sinks) == 0 {
		return nil, fmt.Errorf("notify: config needs at least one sink")
	}
	names := make([]string, 0, len(cfg.Sinks))
	seen := make(map[string]bool, len(cfg.Sinks))
	for _, s := range cfg.Sinks {
		name := s.Name()
		if name == obs.OtherLabel {
			return nil, fmt.Errorf("notify: sink name %q is reserved", obs.OtherLabel)
		}
		if err := obs.ValidateLabelValue(name); err != nil {
			return nil, fmt.Errorf("notify: bad sink name %q: %w", name, err)
		}
		if seen[name] {
			return nil, fmt.Errorf("notify: duplicate sink name %q", name)
		}
		seen[name] = true
		names = append(names, name)
	}
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	firedVec := reg.CounterVec("notify.sink.fired", names)
	deliveredVec := reg.CounterVec("notify.sink.delivered", names)
	droppedVec := reg.CounterVec("notify.sink.dropped", names)
	attemptsVec := reg.CounterVec("notify.sink.attempts", names)
	retriesVec := reg.CounterVec("notify.sink.retries", names)
	n := &Notifier{
		cfg:          cfg,
		last:         make(map[string]lastNotify),
		seen:         reg.Counter("notify.transitions.seen"),
		dedupSupp:    reg.Counter("notify.suppressed.dedup"),
		flapSupp:     reg.Counter("notify.suppressed.flap"),
		pendingGauge: reg.Gauge("notify.queue.pending"),
	}
	for _, s := range cfg.Sinks {
		w := &sinkWorker{
			sink:      s,
			ch:        make(chan Notification, cfg.QueueDepth),
			fired:     firedVec.With(s.Name()),
			delivered: deliveredVec.With(s.Name()),
			dropped:   droppedVec.With(s.Name()),
			attempts:  attemptsVec.With(s.Name()),
			retries:   retriesVec.With(s.Name()),
		}
		n.workers = append(n.workers, w)
		n.wg.Add(1)
		go n.run(w)
	}
	return n, nil
}

// Notify submits one transition. Suppression (dedup, flap damping) is
// decided here, synchronously, against the injectable clock; accepted
// notifications are enqueued per sink and delivered asynchronously.
func (n *Notifier) Notify(t Notification) {
	n.seen.Inc()
	at := t.At
	if at.IsZero() {
		at = n.cfg.Now()
		t.At = at
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	if ln, ok := n.last[t.Objective]; ok {
		if ln.state == t.To {
			n.mu.Unlock()
			n.dedupSupp.Inc()
			return
		}
		if at.Sub(ln.at) < n.cfg.MinHold {
			n.mu.Unlock()
			n.flapSupp.Inc()
			return
		}
	}
	n.last[t.Objective] = lastNotify{state: t.To, at: at}
	n.mu.Unlock()

	for _, w := range n.workers {
		w.fired.Inc()
		// pending is raised before the send so the worker's decrement
		// can never observe it low — the ledger never dips negative.
		w.pending.Add(1)
		n.pendingGauge.Add(1)
		select {
		case w.ch <- t:
		default:
			// Queue full: the slot this notification needed is still
			// occupied by older undelivered work — dropping the newest
			// is the bounded-queue cost, and the ledger records it.
			w.pending.Add(-1)
			n.pendingGauge.Add(-1)
			w.dropped.Inc()
		}
	}
}

// run is one sink's delivery loop; it drains its queue to empty even
// after Close so pending provably reaches zero at quiesce.
func (n *Notifier) run(w *sinkWorker) {
	defer n.wg.Done()
	for t := range w.ch {
		n.deliver(w, t)
		w.pending.Add(-1)
		n.pendingGauge.Add(-1)
	}
}

// deliver tries one notification against one sink with bounded retries.
func (n *Notifier) deliver(w *sinkWorker, t Notification) {
	backoff := n.cfg.Backoff
	max := n.cfg.MaxAttempts
	for attempt := 1; ; attempt++ {
		w.attempts.Inc()
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.Timeout)
		err := w.sink.Deliver(ctx, t)
		cancel()
		if err == nil {
			w.delivered.Inc()
			return
		}
		if attempt >= max {
			w.dropped.Inc()
			return
		}
		w.retries.Inc()
		n.cfg.Sleep(context.Background(), backoff)
		backoff *= 2
	}
}

// Close stops accepting notifications, lets every sink drain its
// queue (bounded by QueueDepth × MaxAttempts × Timeout), and returns
// once pending is zero.
func (n *Notifier) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	for _, w := range n.workers {
		close(w.ch)
	}
	n.wg.Wait()
}

// SinkLedger is one sink's delivery accounting. The invariant
// Fired == Delivered + Dropped + Pending holds exactly at quiescence
// (each cell is individually atomic).
type SinkLedger struct {
	Sink      string `json:"sink"`
	Fired     uint64 `json:"fired"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Pending   uint64 `json:"pending"`
}

// Ledger is the notifier-wide accounting document.
type Ledger struct {
	Sinks     []SinkLedger `json:"sinks"`
	Fired     uint64       `json:"fired"`
	Delivered uint64       `json:"delivered"`
	Dropped   uint64       `json:"dropped"`
	Pending   uint64       `json:"pending"`
	// Seen / SuppressedDedup / SuppressedFlap account for the
	// suppression stages in front of the ledger.
	Seen            uint64 `json:"seen"`
	SuppressedDedup uint64 `json:"suppressed_dedup"`
	SuppressedFlap  uint64 `json:"suppressed_flap"`
}

// Ledger reads the current accounting.
func (n *Notifier) Ledger() Ledger {
	l := Ledger{
		Seen:            n.seen.Value(),
		SuppressedDedup: n.dedupSupp.Value(),
		SuppressedFlap:  n.flapSupp.Value(),
	}
	for _, w := range n.workers {
		p := w.pending.Load()
		if p < 0 {
			p = 0
		}
		s := SinkLedger{
			Sink:      w.sink.Name(),
			Fired:     w.fired.Value(),
			Delivered: w.delivered.Value(),
			Dropped:   w.dropped.Value(),
			Pending:   uint64(p),
		}
		l.Sinks = append(l.Sinks, s)
		l.Fired += s.Fired
		l.Delivered += s.Delivered
		l.Dropped += s.Dropped
		l.Pending += s.Pending
	}
	return l
}
