package incident

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/eventlog"
	"hdmaps/internal/obs/slo"
)

func testJournal(t *testing.T, now *time.Time) *eventlog.Log {
	t.Helper()
	l, err := eventlog.New(eventlog.Config{
		Types:    eventlog.Domain("node_dead", "node_revived", "alert_warning", "alert_critical", "alert_ok"),
		Registry: obs.NewRegistry(),
		Now:      func() time.Time { return *now },
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func tr(obj string, from, to slo.State, at time.Time, trace string) slo.Transition {
	return slo.Transition{
		Objective: obj,
		From:      from,
		To:        to,
		At:        at,
		Alert:     slo.Alert{Name: obj, State: to.String(), BurnFast: 12, BurnSlow: 11, ExemplarTraceID: trace},
	}
}

func TestIncidentLifecycle(t *testing.T) {
	now := time.Unix(5000, 0)
	j := testJournal(t, &now)
	m := New(Config{
		Journal:  j,
		Window:   time.Minute,
		Registry: obs.NewRegistry(),
		Now:      func() time.Time { return now },
	})

	// The kill happens 20s before the alert trips — inside the causal
	// look-back window.
	j.Append("node_dead", "n2", "probe timeout", "")
	now = now.Add(20 * time.Second)
	openAt := now
	m.OnTransition(tr("slo.read.availability", slo.StateOK, slo.StateWarning, now, "trace-1"))

	incs := m.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %+v", incs)
	}
	inc := incs[0]
	if inc.State != "open" || inc.Severity != "warning" || !inc.OpenedAt.Equal(openAt) {
		t.Fatalf("open incident = %+v", inc)
	}
	if len(inc.Events) != 1 || inc.Events[0].Type != "node_dead" {
		t.Fatalf("open incident events = %+v", inc.Events)
	}
	if inc.ExemplarTraceID != "trace-1" {
		t.Fatalf("exemplar = %q", inc.ExemplarTraceID)
	}

	// Escalation extends the same incident — no second one is minted.
	now = now.Add(10 * time.Second)
	m.OnTransition(tr("slo.read.availability", slo.StateWarning, slo.StateCritical, now, "trace-2"))
	if open, _ := m.Counts(); open != 1 {
		t.Fatalf("escalation minted a new incident")
	}

	// Revival and recovery: the closing edge resolves the incident and
	// snapshots a timeline containing both the kill and the revival.
	now = now.Add(10 * time.Second)
	j.Append("node_revived", "n2", "", "")
	now = now.Add(5 * time.Second)
	resolveAt := now
	m.OnTransition(tr("slo.read.availability", slo.StateCritical, slo.StateOK, now, ""))

	incs = m.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents after resolve = %+v", incs)
	}
	inc = incs[0]
	if inc.State != "resolved" || !inc.ResolvedAt.Equal(resolveAt) {
		t.Fatalf("resolved incident = %+v", inc)
	}
	if inc.Severity != "critical" {
		t.Fatalf("severity = %q, want critical (worst reached)", inc.Severity)
	}
	if len(inc.Arc) != 3 || inc.Arc[2].To != "ok" {
		t.Fatalf("arc = %+v", inc.Arc)
	}
	if inc.ExemplarTraceID != "trace-2" {
		t.Fatalf("exemplar = %q, want freshest trace-2", inc.ExemplarTraceID)
	}
	var types []string
	for _, e := range inc.Events {
		types = append(types, e.Type)
	}
	if len(types) != 2 || types[0] != "node_dead" || types[1] != "node_revived" {
		t.Fatalf("timeline = %v, want [node_dead node_revived]", types)
	}
	if open, resolved := m.Counts(); open != 0 || resolved != 1 {
		t.Fatalf("counts = %d open %d resolved", open, resolved)
	}
}

func TestEventsOutsideWindowExcluded(t *testing.T) {
	now := time.Unix(9000, 0)
	j := testJournal(t, &now)
	m := New(Config{Journal: j, Window: 30 * time.Second, Registry: obs.NewRegistry(), Now: func() time.Time { return now }})

	j.Append("node_dead", "ancient", "", "") // 5m before open: outside look-back
	now = now.Add(5 * time.Minute)
	j.Append("node_dead", "fresh", "", "")
	now = now.Add(10 * time.Second)
	m.OnTransition(tr("slo.a.b", slo.StateOK, slo.StateCritical, now, ""))
	now = now.Add(10 * time.Second)
	m.OnTransition(tr("slo.a.b", slo.StateCritical, slo.StateOK, now, ""))
	now = now.Add(time.Minute)
	j.Append("node_dead", "late", "", "") // after resolve: outside window

	incs := m.Incidents()
	if len(incs) != 1 || len(incs[0].Events) != 1 || incs[0].Events[0].Node != "fresh" {
		t.Fatalf("timeline = %+v", incs[0].Events)
	}
}

func TestResolvedRingBounded(t *testing.T) {
	now := time.Unix(1000, 0)
	m := New(Config{MaxResolved: 2, Registry: obs.NewRegistry(), Now: func() time.Time { return now }})
	for i := 0; i < 5; i++ {
		at := now.Add(time.Duration(i) * time.Minute)
		m.OnTransition(tr("slo.a.b", slo.StateOK, slo.StateWarning, at, ""))
		m.OnTransition(tr("slo.a.b", slo.StateWarning, slo.StateOK, at.Add(time.Second), ""))
	}
	incs := m.Incidents()
	if len(incs) != 2 {
		t.Fatalf("retained %d resolved incidents, want 2", len(incs))
	}
	// Newest first, and IDs keep counting (5 total minted).
	if incs[0].ID != "inc-5" || incs[1].ID != "inc-4" {
		t.Fatalf("retained = %s, %s", incs[0].ID, incs[1].ID)
	}
}

func TestRecoveryWithoutOpenIncidentIgnored(t *testing.T) {
	m := New(Config{Registry: obs.NewRegistry()})
	m.OnTransition(tr("slo.a.b", slo.StateCritical, slo.StateOK, time.Unix(1000, 0), ""))
	if len(m.Incidents()) != 0 {
		t.Fatalf("phantom incident: %+v", m.Incidents())
	}
}

func TestMultipleObjectivesIndependent(t *testing.T) {
	now := time.Unix(1000, 0)
	m := New(Config{Registry: obs.NewRegistry(), Now: func() time.Time { return now }})
	m.OnTransition(tr("slo.a.b", slo.StateOK, slo.StateWarning, now, ""))
	m.OnTransition(tr("slo.c.d", slo.StateOK, slo.StateCritical, now.Add(time.Second), ""))
	m.OnTransition(tr("slo.a.b", slo.StateWarning, slo.StateOK, now.Add(2*time.Second), ""))
	incs := m.Incidents()
	if len(incs) != 2 {
		t.Fatalf("incidents = %+v", incs)
	}
	if incs[0].Objective != "slo.c.d" || incs[0].State != "open" {
		t.Fatalf("open incident = %+v", incs[0])
	}
	if incs[1].Objective != "slo.a.b" || incs[1].State != "resolved" {
		t.Fatalf("resolved incident = %+v", incs[1])
	}
}

func TestHandlerAndStateFilter(t *testing.T) {
	now := time.Unix(1000, 0)
	m := New(Config{Registry: obs.NewRegistry(), Now: func() time.Time { return now }})
	m.OnTransition(tr("slo.a.b", slo.StateOK, slo.StateWarning, now, ""))
	m.OnTransition(tr("slo.a.b", slo.StateWarning, slo.StateOK, now.Add(time.Second), ""))
	m.OnTransition(tr("slo.c.d", slo.StateOK, slo.StateCritical, now.Add(2*time.Second), ""))
	h := Handler(m)

	get := func(url string) (*httptest.ResponseRecorder, Status) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var doc Status
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatalf("%s: decode: %v", url, err)
			}
		}
		return rec, doc
	}

	rec, doc := get("/incidentz")
	if rec.Code != 200 || doc.Open != 1 || doc.Resolved != 1 || len(doc.Incidents) != 2 {
		t.Fatalf("all: code %d doc %+v", rec.Code, doc)
	}
	_, doc = get("/incidentz?state=open")
	if len(doc.Incidents) != 1 || doc.Incidents[0].State != "open" {
		t.Fatalf("open filter: %+v", doc.Incidents)
	}
	_, doc = get("/incidentz?state=resolved")
	if len(doc.Incidents) != 1 || doc.Incidents[0].State != "resolved" {
		t.Fatalf("resolved filter: %+v", doc.Incidents)
	}
	rec, _ = get("/incidentz?state=bogus")
	if rec.Code != 400 {
		t.Fatalf("bogus filter: code %d", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("bogus filter body: %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/incidentz", nil))
	if rec.Code != 405 {
		t.Fatalf("POST code = %d", rec.Code)
	}
}

// TestConfigDefaults: zero and negative knobs resolve to the documented
// defaults, explicit values survive.
func TestConfigDefaults(t *testing.T) {
	epoch := time.Unix(42, 0)
	reg := obs.NewRegistry()
	explicit := Config{Window: time.Second, MaxResolved: 3, MaxArc: 5, MaxEvents: 7, Registry: reg,
		Now: func() time.Time { return epoch }}
	defaults := Config{Window: 2 * time.Minute, MaxResolved: 64, MaxArc: 64, MaxEvents: 256, Registry: obs.Default()}
	cases := []struct {
		name     string
		in, want Config
	}{
		{"zero", Config{}, defaults},
		{"negative", Config{Window: -1, MaxResolved: -1, MaxArc: -1, MaxEvents: -1}, defaults},
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
