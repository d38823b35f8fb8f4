// Package slo is the declarative objective layer over timeseries
// history: each Objective names what "good" means for one signal
// (a good/bad ratio of counter rates, or a bound on a sampled value),
// and the Engine evaluates multi-window burn rates against it —
// Google-SRE style: the error budget is 1-Target, the burn rate is
// observed error rate divided by budget, and an alert fires only when
// BOTH a fast window (reacts in minutes) and a slow window (filters
// blips) burn too hot. The resulting ok→warning→critical state machine
// is served on /alertz, each non-ok alert stamped with an exemplar
// trace ID that resolves on /tracez.
package slo

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"hdmaps/internal/obs"
)

// Source is the time-series query surface the engine evaluates over —
// implemented by timeseries.Store. Window visits every valid sample of
// a series within the trailing window and returns the sample count.
type Source interface {
	Window(name string, w time.Duration, fn func(v float64)) int
}

// State is an alert's position in the ok→warning→critical machine.
type State int

const (
	StateOK State = iota
	StateWarning
	StateCritical
)

// stateNames is the enumerated label domain for the transition
// counter — bounded by construction, like every Vec domain.
var stateNames = []string{"ok", "warning", "critical"}

// String renders the state for JSON and labels.
func (s State) String() string {
	if s < StateOK || s > StateCritical {
		return "unknown"
	}
	return stateNames[s]
}

// Objective declares one SLO. Exactly one of the two modes must be
// configured:
//
//   - Ratio mode (GoodSeries or BadSeries, plus TotalSeries): the
//     error rate over a window is bad/total (or 1-good/total) of the
//     summed rate samples — e.g. shed requests over routed requests.
//   - Threshold mode (ValueSeries + Bound): the error rate is the
//     fraction of window samples violating the bound — e.g. p99
//     latency samples above 250ms, or sweep cadence below a floor.
type Objective struct {
	// Name identifies the objective; it must satisfy the obs metric
	// grammar (component.subsystem.name) and is linted like one.
	Name string
	// Description is operator-facing prose for /alertz.
	Description string

	// GoodSeries/BadSeries/TotalSeries configure ratio mode. Set
	// exactly one of Good or Bad.
	GoodSeries  string
	BadSeries   string
	TotalSeries string

	// ValueSeries/Bound/Below configure threshold mode. A sample
	// violates when value > Bound, or value < Bound if Below is set.
	ValueSeries string
	Bound       float64
	Below       bool

	// Target is the objective in (0,1), e.g. 0.999 — the error budget
	// is 1-Target.
	Target float64

	// ExemplarSource optionally names a registry histogram whose worst
	// bucket exemplar stamps this objective's alerts with a trace ID.
	ExemplarSource string
}

func (o *Objective) validate() error {
	if err := obs.ValidateName(o.Name); err != nil {
		return fmt.Errorf("slo: objective name: %w", err)
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("slo: objective %s: target %v outside (0,1)", o.Name, o.Target)
	}
	ratio := o.TotalSeries != ""
	threshold := o.ValueSeries != ""
	if ratio == threshold {
		return fmt.Errorf("slo: objective %s: configure exactly one of ratio (TotalSeries) or threshold (ValueSeries) mode", o.Name)
	}
	if ratio && (o.GoodSeries == "") == (o.BadSeries == "") {
		return fmt.Errorf("slo: objective %s: ratio mode needs exactly one of GoodSeries or BadSeries", o.Name)
	}
	return nil
}

// Config configures an Engine.
type Config struct {
	// Source is the series history to evaluate over (required).
	Source Source
	// Objectives are the shipped SLOs (at least one).
	Objectives []Objective
	// FastWindow reacts to fresh damage (default 5m); SlowWindow
	// filters blips (default 1h).
	FastWindow time.Duration
	SlowWindow time.Duration
	// WarnBurn / CritBurn are burn-rate thresholds relative to the
	// error budget (defaults 2 and 10): critical at 10x means the
	// budget would be gone in 1/10th of the SLO period.
	WarnBurn float64
	CritBurn float64
	// MinSamples is the fewest fast-window samples required before the
	// engine trusts a verdict (default 3); below it the objective
	// reports no-data and holds StateOK.
	MinSamples int
	// Registry receives the engine's self-metrics and resolves
	// ExemplarSource histograms (default obs.Default()).
	Registry *obs.Registry
	// Now overrides the clock (tests).
	Now func() time.Time
	// OnTransition, when set, receives every state change after the
	// evaluation pass completes — the push half of the alerting plane
	// (notifier fan-out, incident minting, journal entries) hangs off
	// it. Called outside the engine lock, in objective declaration
	// order, from whichever goroutine ran Evaluate.
	OnTransition func(Transition)
}

// Transition is one alert state change as fed to OnTransition: the
// objective, the edge, and the full alert verdict that caused it.
type Transition struct {
	Objective   string
	Description string
	From        State
	To          State
	At          time.Time
	Alert       Alert
}

// withDefaults resolves every zero knob to its documented default,
// once, at construction.
func (c Config) withDefaults() Config {
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = time.Hour
	}
	if c.WarnBurn <= 0 {
		c.WarnBurn = 2
	}
	if c.CritBurn <= 0 {
		c.CritBurn = 10
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 3
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Alert is one objective's current verdict — the /alertz document row.
type Alert struct {
	Name        string    `json:"name"`
	Description string    `json:"description,omitempty"`
	State       string    `json:"state"`
	Since       time.Time `json:"since"`
	// NoData marks a verdict withheld for lack of samples (state holds
	// at ok).
	NoData bool `json:"no_data,omitempty"`
	// BurnFast/BurnSlow are the two window burn rates (error rate over
	// error budget); both must clear a threshold to trip it.
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
	// FastErrorRate/SlowErrorRate are the raw windowed error rates.
	FastErrorRate float64 `json:"fast_error_rate"`
	SlowErrorRate float64 `json:"slow_error_rate"`
	Target        float64 `json:"target"`
	ErrorBudget   float64 `json:"error_budget"`
	// ExemplarTraceID, when set, resolves on /tracez to a concrete
	// request that spent this objective's budget.
	ExemplarTraceID string `json:"exemplar_trace_id,omitempty"`
	// Transitions counts state changes since engine start.
	Transitions uint64 `json:"transitions"`
	// LastTransition is when the state last changed — zero until the
	// first change, unlike Since, which starts at engine construction.
	// Dedup and flap-damping logic keys off it, which is what makes
	// that logic testable against the injectable clock.
	LastTransition time.Time `json:"last_transition,omitempty"`
}

// objectiveState is the engine's mutable per-objective record.
type objectiveState struct {
	obj         Objective
	state       State
	since       time.Time
	lastChange  time.Time
	transitions uint64
	lastAlert   Alert
}

// Engine evaluates objectives against a Source on demand and holds the
// alert state machine. Evaluate is cheap (a few window scans per
// objective) and is expected to run at the sampling cadence.
type Engine struct {
	cfg  Config
	mu   sync.Mutex
	objs []*objectiveState

	evaluations *obs.Counter
	transitions *obs.CounterVec
	warnGauge   *obs.Gauge
	critGauge   *obs.Gauge
}

// New validates every objective and builds an engine with all alerts
// at StateOK.
func New(cfg Config) (*Engine, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("slo: config needs a Source")
	}
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: config needs at least one objective")
	}
	seen := make(map[string]bool, len(cfg.Objectives))
	cfg = cfg.withDefaults()
	now := cfg.Now()
	e := &Engine{cfg: cfg}
	for _, o := range cfg.Objectives {
		if err := o.validate(); err != nil {
			return nil, err
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %s", o.Name)
		}
		seen[o.Name] = true
		e.objs = append(e.objs, &objectiveState{obj: o, state: StateOK, since: now})
	}
	e.evaluations = e.cfg.Registry.Counter("slo.engine.evaluations")
	e.transitions = e.cfg.Registry.CounterVec("slo.engine.transitions", stateNames)
	e.warnGauge = e.cfg.Registry.Gauge("slo.engine.warning")
	e.critGauge = e.cfg.Registry.Gauge("slo.engine.critical")
	return e, nil
}

// errorRate computes one objective's windowed error rate; ok is false
// when the window cannot support a verdict.
func (e *Engine) errorRate(o *Objective, w time.Duration, minSamples int) (rate float64, ok bool) {
	src := e.cfg.Source
	switch {
	case o.TotalSeries != "":
		var total, part float64
		n := src.Window(o.TotalSeries, w, func(v float64) { total += v })
		ref := o.GoodSeries
		if o.BadSeries != "" {
			ref = o.BadSeries
		}
		src.Window(ref, w, func(v float64) { part += v })
		if n < minSamples || total <= 0 {
			return 0, false
		}
		if o.BadSeries != "" {
			rate = part / total
		} else {
			rate = 1 - part/total
		}
	default:
		var violations, samples int
		n := src.Window(o.ValueSeries, w, func(v float64) {
			samples++
			if (o.Below && v < o.Bound) || (!o.Below && v > o.Bound) {
				violations++
			}
		})
		if n < minSamples {
			return 0, false
		}
		rate = float64(violations) / float64(samples)
	}
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return rate, true
}

// exemplarFor finds the freshest exemplar of an objective's source
// histogram, slower buckets winning ties. Recency beats bucket
// position because trace rings evict old entries — an alert pointing
// at an evicted trace is worse than one pointing at a fast request
// from the same incident.
func (e *Engine) exemplarFor(o *Objective) string {
	if o.ExemplarSource == "" {
		return ""
	}
	h := e.cfg.Registry.LookupHistogram(o.ExemplarSource)
	if h == nil {
		return ""
	}
	s := h.Snapshot()
	var best *obs.Exemplar
	consider := func(ex *obs.Exemplar) {
		if ex != nil && (best == nil || ex.AtNanos > best.AtNanos) {
			best = ex
		}
	}
	consider(s.OverflowExemplar)
	for i := len(s.Buckets) - 1; i >= 0; i-- {
		consider(s.Buckets[i].Exemplar)
	}
	if best == nil {
		return ""
	}
	return best.TraceID
}

// Evaluate runs one pass of the state machine over every objective.
func (e *Engine) Evaluate() {
	now := e.cfg.Now()
	fast, slow := e.cfg.FastWindow, e.cfg.SlowWindow
	warnAt, critAt := e.cfg.WarnBurn, e.cfg.CritBurn
	minSamples := e.cfg.MinSamples

	e.mu.Lock()
	e.evaluations.Inc()
	var fired []Transition
	warning, critical := 0, 0
	for _, os := range e.objs {
		o := &os.obj
		budget := 1 - o.Target
		a := Alert{
			Name:        o.Name,
			Description: o.Description,
			Target:      o.Target,
			ErrorBudget: budget,
		}
		fastRate, fastOK := e.errorRate(o, fast, minSamples)
		// The slow window needs no minimum of its own: any fast-window
		// verdict is also evidence inside the slow window.
		slowRate, slowOK := e.errorRate(o, slow, 1)
		next := StateOK
		if fastOK && slowOK {
			a.FastErrorRate, a.SlowErrorRate = fastRate, slowRate
			a.BurnFast, a.BurnSlow = fastRate/budget, slowRate/budget
			switch {
			case a.BurnFast >= critAt && a.BurnSlow >= critAt:
				next = StateCritical
			case a.BurnFast >= warnAt && a.BurnSlow >= warnAt:
				next = StateWarning
			}
		} else {
			a.NoData = true
		}
		prev := os.state
		if next != os.state {
			os.state = next
			os.since = now
			os.lastChange = now
			os.transitions++
			e.transitions.With(next.String()).Inc()
		}
		a.State = os.state.String()
		a.Since = os.since
		a.Transitions = os.transitions
		a.LastTransition = os.lastChange
		if os.state != StateOK {
			a.ExemplarTraceID = e.exemplarFor(o)
		}
		switch os.state {
		case StateWarning:
			warning++
		case StateCritical:
			critical++
		}
		os.lastAlert = a
		if next != prev {
			fired = append(fired, Transition{
				Objective:   o.Name,
				Description: o.Description,
				From:        prev,
				To:          next,
				At:          now,
				Alert:       a,
			})
		}
	}
	e.warnGauge.Set(int64(warning))
	e.critGauge.Set(int64(critical))
	cb := e.cfg.OnTransition
	e.mu.Unlock()
	if cb != nil {
		for _, tr := range fired {
			cb(tr)
		}
	}
}

// Alerts reads the latest verdict per objective, in declaration order.
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.objs))
	for _, os := range e.objs {
		out = append(out, os.lastAlert)
	}
	return out
}

// Status is the /alertz document.
type Status struct {
	GeneratedAt time.Time `json:"generated_at"`
	FastWindow  string    `json:"fast_window"`
	SlowWindow  string    `json:"slow_window"`
	WarnBurn    float64   `json:"warn_burn"`
	CritBurn    float64   `json:"crit_burn"`
	Alerts      []Alert   `json:"alerts"`
}

// Status assembles the exportable engine state.
func (e *Engine) Status() Status {
	return Status{
		GeneratedAt: e.cfg.Now(),
		FastWindow:  e.cfg.FastWindow.String(),
		SlowWindow:  e.cfg.SlowWindow.String(),
		WarnBurn:    e.cfg.WarnBurn,
		CritBurn:    e.cfg.CritBurn,
		Alerts:      e.Alerts(),
	}
}

// Handler serves the engine state as JSON — mount it at /alertz.
func Handler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			obs.WriteJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		obs.WriteJSON(w, e.Status(), nil)
	})
}
