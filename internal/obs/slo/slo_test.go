package slo

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/timeseries"
)

// fill appends n ticks of (total, bad, p99) samples to a store, one
// second apart starting at base, and returns the next tick time.
func fill(st *timeseries.Store, base time.Time, n int, total, bad, p99 float64) time.Time {
	tot := st.Ensure("t.requests.routed", timeseries.KindRate)
	b := st.Ensure("t.requests.shed", timeseries.KindRate)
	q := st.Ensure("t.latency.seconds.p99", timeseries.KindQuantile)
	for i := 0; i < n; i++ {
		base = base.Add(time.Second)
		st.Tick(base)
		tot.Set(total)
		b.Set(bad)
		q.Set(p99)
	}
	return base
}

func newEngine(t *testing.T, st *timeseries.Store, now *time.Time, objs ...Objective) *Engine {
	t.Helper()
	e, err := New(Config{
		Source:     st,
		Objectives: objs,
		FastWindow: 5 * time.Second,
		SlowWindow: 20 * time.Second,
		Registry:   obs.NewRegistry(),
		Now:        func() time.Time { return *now },
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func availability() Objective {
	return Objective{
		Name:        "slo.read.availability",
		BadSeries:   "t.requests.shed",
		TotalSeries: "t.requests.routed",
		Target:      0.99,
	}
}

func TestRatioObjectiveLifecycle(t *testing.T) {
	st := timeseries.NewStore(64)
	now := time.Unix(10000, 0)
	e := newEngine(t, st, &now, availability())

	// Healthy traffic: zero bad → ok.
	now = fill(st, now, 25, 100, 0, 0)
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "ok" || a.NoData {
		t.Fatalf("healthy: %+v", a)
	}

	// 50% shed: burn = 0.5/0.01 = 50 >> crit in both windows once the
	// slow window sees enough damage.
	now = fill(st, now, 25, 100, 50, 0)
	e.Evaluate()
	a := e.Alerts()[0]
	if a.State != "critical" {
		t.Fatalf("fault: state %s, want critical (%+v)", a.State, a)
	}
	if a.BurnFast < 10 || a.BurnSlow < 10 {
		t.Fatalf("fault: burns fast=%v slow=%v, want both >= 10", a.BurnFast, a.BurnSlow)
	}
	if a.Transitions != 1 {
		t.Fatalf("fault: transitions %d, want 1", a.Transitions)
	}

	// Recovery: both windows must drain below threshold before clearing
	// — the slow window keeps the alert up briefly (hysteresis), then
	// it clears.
	now = fill(st, now, 60, 100, 0, 0)
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "ok" {
		t.Fatalf("recovered: state %s, want ok (%+v)", a.State, a)
	}
}

func TestFastWindowAloneDoesNotTrip(t *testing.T) {
	st := timeseries.NewStore(128)
	now := time.Unix(20000, 0)
	e, err := New(Config{
		Source:     st,
		Objectives: []Objective{availability()},
		FastWindow: 5 * time.Second,
		SlowWindow: 60 * time.Second,
		Registry:   obs.NewRegistry(),
		Now:        func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}

	// A long healthy history, then a short blip: the fast window burns
	// past critical but the slow window absorbs it — no alert.
	now = fill(st, now, 55, 100, 0, 0)
	now = fill(st, now, 3, 100, 30, 0)
	e.Evaluate()
	a := e.Alerts()[0]
	if a.BurnFast < 10 {
		t.Fatalf("blip: fast burn %v, want >= crit threshold for the test to mean anything", a.BurnFast)
	}
	if a.State != "ok" {
		t.Fatalf("blip: state %s, want ok (fast=%v slow=%v)", a.State, a.BurnFast, a.BurnSlow)
	}
}

func TestThresholdObjective(t *testing.T) {
	st := timeseries.NewStore(64)
	now := time.Unix(30000, 0)
	e := newEngine(t, st, &now, Objective{
		Name:        "slo.read.latency_p99",
		ValueSeries: "t.latency.seconds.p99",
		Bound:       0.25,
		Target:      0.9,
	})

	now = fill(st, now, 25, 100, 0, 0.01)
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "ok" {
		t.Fatalf("fast latency: %+v", a)
	}

	// Every sample above the bound: error rate 1, burn 1/0.1 = 10.
	now = fill(st, now, 25, 100, 0, 0.9)
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "critical" {
		t.Fatalf("slow latency: state %s, want critical (%+v)", a.State, a)
	}
}

func TestThresholdBelowObjective(t *testing.T) {
	st := timeseries.NewStore(64)
	now := time.Unix(40000, 0)
	e := newEngine(t, st, &now, Objective{
		Name:        "slo.sweep.cadence",
		ValueSeries: "t.requests.routed", // reused as a stand-in rate
		Bound:       10,
		Below:       true, // violation when the rate drops under 10/s
		Target:      0.95,
	})
	now = fill(st, now, 25, 100, 0, 0)
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "ok" {
		t.Fatalf("healthy cadence: %+v", a)
	}
	now = fill(st, now, 25, 1, 0, 0)
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "critical" {
		t.Fatalf("stalled cadence: state %s, want critical (%+v)", a.State, a)
	}
}

func TestNoDataHoldsOK(t *testing.T) {
	st := timeseries.NewStore(64)
	now := time.Unix(50000, 0)
	e := newEngine(t, st, &now, availability())
	e.Evaluate()
	a := e.Alerts()[0]
	if a.State != "ok" || !a.NoData {
		t.Fatalf("empty store: %+v, want ok+no_data", a)
	}
	// Zero-traffic windows (total rate 0) are also no-data, not a 100%
	// error rate.
	tot := st.Ensure("t.requests.routed", timeseries.KindRate)
	sh := st.Ensure("t.requests.shed", timeseries.KindRate)
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		st.Tick(now)
		tot.Set(0)
		sh.Set(0)
	}
	e.Evaluate()
	if a := e.Alerts()[0]; a.State != "ok" || !a.NoData {
		t.Fatalf("idle store: %+v, want ok+no_data", a)
	}
}

func TestExemplarStampsAlert(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("t.latency.seconds", nil)
	h.ObserveWithExemplar(42, "deadbeefdeadbeef") // overflow bucket
	st := timeseries.NewStore(64)
	now := time.Unix(60000, 0)
	obj := availability()
	obj.ExemplarSource = "t.latency.seconds"
	e, err := New(Config{
		Source:     st,
		Objectives: []Objective{obj},
		FastWindow: 5 * time.Second,
		SlowWindow: 20 * time.Second,
		Registry:   reg,
		Now:        func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	now = fill(st, now, 30, 100, 100, 0)
	e.Evaluate()
	a := e.Alerts()[0]
	if a.State != "critical" {
		t.Fatalf("state %s, want critical", a.State)
	}
	if a.ExemplarTraceID != "deadbeefdeadbeef" {
		t.Fatalf("exemplar %q, want the histogram's worst-bucket trace", a.ExemplarTraceID)
	}
}

func TestEngineSelfMetricsAndTransitions(t *testing.T) {
	reg := obs.NewRegistry()
	st := timeseries.NewStore(64)
	now := time.Unix(70000, 0)
	e, err := New(Config{
		Source:     st,
		Objectives: []Objective{availability()},
		FastWindow: 5 * time.Second,
		SlowWindow: 20 * time.Second,
		Registry:   reg,
		Now:        func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	now = fill(st, now, 25, 100, 100, 0)
	e.Evaluate()
	now = fill(st, now, 60, 100, 0, 0)
	e.Evaluate()
	snap := reg.Snapshot()
	if got := snap.Counters["slo.engine.evaluations"]; got != 2 {
		t.Errorf("evaluations = %d, want 2", got)
	}
	if got := snap.Counters["slo.engine.transitions.critical"]; got != 1 {
		t.Errorf("transitions.critical = %d, want 1", got)
	}
	if got := snap.Counters["slo.engine.transitions.ok"]; got != 1 {
		t.Errorf("transitions.ok = %d, want 1", got)
	}
	if got := snap.Gauges["slo.engine.critical"]; got != 0 {
		t.Errorf("critical gauge = %d, want 0 after recovery", got)
	}
}

func TestConfigValidation(t *testing.T) {
	st := timeseries.NewStore(8)
	cases := []Objective{
		{Name: "bad name!", TotalSeries: "a.b.c", BadSeries: "a.b.d", Target: 0.9},
		{Name: "slo.x.y", TotalSeries: "a.b.c", BadSeries: "a.b.d", Target: 1.5},
		{Name: "slo.x.y", Target: 0.9},                                                                // no mode
		{Name: "slo.x.y", TotalSeries: "a.b.c", ValueSeries: "a.b.d", Target: 0.9},                    // both modes
		{Name: "slo.x.y", TotalSeries: "a.b.c", Target: 0.9},                                          // ratio without good/bad
		{Name: "slo.x.y", TotalSeries: "a.b.c", GoodSeries: "a.b.d", BadSeries: "a.b.e", Target: 0.9}, // both good and bad
	}
	for i, o := range cases {
		if _, err := New(Config{Source: st, Objectives: []Objective{o}, Registry: obs.NewRegistry()}); err == nil {
			t.Errorf("case %d (%+v): want validation error", i, o)
		}
	}
	if _, err := New(Config{Source: nil, Objectives: []Objective{availability()}, Registry: obs.NewRegistry()}); err == nil {
		t.Error("nil source: want error")
	}
	dup := []Objective{availability(), availability()}
	if _, err := New(Config{Source: st, Objectives: dup, Registry: obs.NewRegistry()}); err == nil {
		t.Error("duplicate objective: want error")
	}
}

func TestAlertzHandler(t *testing.T) {
	st := timeseries.NewStore(64)
	now := time.Unix(80000, 0)
	e := newEngine(t, st, &now, availability())
	now = fill(st, now, 25, 100, 100, 0)
	e.Evaluate()

	rec := httptest.NewRecorder()
	Handler(e).ServeHTTP(rec, httptest.NewRequest("GET", "/alertz", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var doc Status
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Alerts) != 1 || doc.Alerts[0].State != "critical" {
		t.Fatalf("alertz doc: %+v", doc)
	}
	if doc.FastWindow != "5s" || doc.CritBurn != 10 {
		t.Fatalf("alertz windows: %+v", doc)
	}

	rec = httptest.NewRecorder()
	Handler(e).ServeHTTP(rec, httptest.NewRequest("POST", "/alertz", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

func TestLastTransitionTimestampAndCallback(t *testing.T) {
	st := timeseries.NewStore(64)
	now := time.Unix(30000, 0)
	var fired []Transition
	e, err := New(Config{
		Source:       st,
		Objectives:   []Objective{availability()},
		FastWindow:   5 * time.Second,
		SlowWindow:   20 * time.Second,
		Registry:     obs.NewRegistry(),
		Now:          func() time.Time { return now },
		OnTransition: func(tr Transition) { fired = append(fired, tr) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy: no transition has ever happened, so LastTransition is
	// zero while Since is the construction time.
	now = fill(st, now, 25, 100, 0, 0)
	e.Evaluate()
	if a := e.Alerts()[0]; !a.LastTransition.IsZero() || a.Since.IsZero() {
		t.Fatalf("healthy: last_transition %v since %v", a.LastTransition, a.Since)
	}
	if len(fired) != 0 {
		t.Fatalf("healthy pass fired %d transitions", len(fired))
	}

	// Fault: the transition is stamped with the injected clock and the
	// callback sees the same edge.
	now = fill(st, now, 25, 100, 50, 0)
	tripAt := now
	e.Evaluate()
	a := e.Alerts()[0]
	if !a.LastTransition.Equal(tripAt) {
		t.Fatalf("fault: last_transition %v, want %v", a.LastTransition, tripAt)
	}
	if len(fired) != 1 || fired[0].From != StateOK || fired[0].To != StateCritical {
		t.Fatalf("fired = %+v", fired)
	}
	if fired[0].Objective != "slo.read.availability" || !fired[0].At.Equal(tripAt) {
		t.Fatalf("fired[0] = %+v", fired[0])
	}
	if fired[0].Alert.State != "critical" || !fired[0].Alert.LastTransition.Equal(tripAt) {
		t.Fatalf("fired[0].Alert = %+v", fired[0].Alert)
	}

	// Steady state: no new transition, timestamp holds.
	now = fill(st, now, 3, 100, 50, 0)
	e.Evaluate()
	if a := e.Alerts()[0]; !a.LastTransition.Equal(tripAt) {
		t.Fatalf("steady: last_transition moved to %v", a.LastTransition)
	}
	if len(fired) != 1 {
		t.Fatalf("steady pass fired transitions: %+v", fired)
	}

	// Recovery fires the closing edge with a fresh timestamp.
	now = fill(st, now, 60, 100, 0, 0)
	clearAt := now
	e.Evaluate()
	if a := e.Alerts()[0]; !a.LastTransition.Equal(clearAt) {
		t.Fatalf("recovered: last_transition %v, want %v", a.LastTransition, clearAt)
	}
	if len(fired) != 2 || fired[1].From != StateCritical || fired[1].To != StateOK {
		t.Fatalf("fired = %+v", fired)
	}
}

// TestConfigDefaults: zero and negative knobs resolve to the documented
// defaults, explicit values survive.
func TestConfigDefaults(t *testing.T) {
	epoch := time.Unix(42, 0)
	reg := obs.NewRegistry()
	explicit := Config{FastWindow: time.Second, SlowWindow: time.Minute, WarnBurn: 3, CritBurn: 7,
		MinSamples: 9, Registry: reg, Now: func() time.Time { return epoch }}
	defaults := Config{FastWindow: 5 * time.Minute, SlowWindow: time.Hour, WarnBurn: 2, CritBurn: 10,
		MinSamples: 3, Registry: obs.Default()}
	cases := []struct {
		name     string
		in, want Config
	}{
		{"zero", Config{}, defaults},
		{"negative", Config{FastWindow: -1, SlowWindow: -1, WarnBurn: -1, CritBurn: -1, MinSamples: -1}, defaults},
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
