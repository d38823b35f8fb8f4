package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hdmaps/internal/obs/eventlog"
	"hdmaps/internal/obs/incident"
)

// TestEventJournalRecordsLifecycle drives the failure detector and
// membership API by hand and asserts every transition lands on the
// journal exactly once, in order, with the detector's error detail.
func TestEventJournalRecordsLifecycle(t *testing.T) {
	rt, _ := newTestCluster(t, 2, Config{})
	j := rt.EventLog()
	if j == nil {
		t.Fatal("default config should build an event journal")
	}

	m := rt.members["node0"]
	for i := 0; i < rt.cfg.FailAfter; i++ {
		rt.noteFailure(m, "test kill")
	}
	rt.noteSuccess(m)
	n2 := newTestNode(t, "node2")
	if err := rt.AddNode(Node{Name: "node2", Base: n2.srv.URL}); err != nil {
		t.Fatal(err)
	}
	rt.RemoveNode("node2")

	evs := j.Since(0, "", 0)
	var types []string
	for _, e := range evs {
		types = append(types, e.Type)
	}
	want := []string{eventlog.TypeNodeDead, eventlog.TypeNodeRevived,
		eventlog.TypeNodeJoin, eventlog.TypeNodeLeave}
	if len(types) != len(want) {
		t.Fatalf("journal types %v, want %v", types, want)
	}
	for i, w := range want {
		if types[i] != w {
			t.Fatalf("event %d: %s, want %s (all: %v)", i, types[i], w, types)
		}
	}
	if evs[0].Node != "node0" || evs[0].Detail != "test kill" {
		t.Fatalf("node_dead event: %+v", evs[0])
	}

	// Type-filtered query through the HTTP surface.
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/eventz?type="+eventlog.TypeNodeDead, nil))
	if rec.Code != 200 {
		t.Fatalf("eventz status %d: %s", rec.Code, rec.Body.String())
	}
	var doc eventlog.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Events) != 1 || doc.Events[0].Type != eventlog.TypeNodeDead {
		t.Fatalf("filtered eventz: %+v", doc.Events)
	}
}

// TestEventzIncidentzQueryHardening exercises the 400 surface of both
// new endpoints and the hardened /fleetz through the real router mux:
// garbage parameters are named errors, never silent coercion.
func TestEventzIncidentzQueryHardening(t *testing.T) {
	rt, _ := newTestCluster(t, 1, Config{})
	cases := []struct {
		path string
		code int
	}{
		{"/eventz", 200},
		{"/eventz?since=0&type=" + eventlog.TypeSweepRound, 200},
		{"/eventz?since=bogus", 400},
		{"/eventz?since=-1", 400},
		{"/eventz?since=9100000000000000000", 400},
		{"/eventz?type=no_such_type", 400},
		{"/eventz?max=-5", 400},
		{"/incidentz", 200},
		{"/incidentz?state=open", 200},
		{"/incidentz?state=resolved", 200},
		{"/incidentz?state=bogus", 400},
		{"/fleetz?points=5", 200},
		{"/fleetz?points=bogus", 400},
		{"/fleetz?points=-1", 400},
		{"/fleetz?points=10000000000", 400},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.path, rec.Code, tc.code,
				strings.TrimSpace(rec.Body.String()))
		}
		if tc.code == 400 {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s: 400 body not a JSON error: %q", tc.path, rec.Body.String())
			}
		}
	}
}

// TestEventzIncidentzDisabledWithPlane: the new endpoints ride the same
// plane switch as /fleetz — a negative SampleInterval turns them off.
func TestEventzIncidentzDisabledWithPlane(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()
	rt, err := NewRouter(Config{
		Nodes:          []Node{{Name: "n1", Base: srv.URL}},
		SampleInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.EventLog() != nil || rt.Incidents() != nil || rt.Notifier() != nil {
		t.Fatal("disabled plane should not build journal/incidents/notifier")
	}
	for _, path := range []string{"/eventz", "/incidentz"} {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 404 {
			t.Fatalf("%s: status %d, want 404 when disabled", path, rec.Code)
		}
	}
}

// TestSharedJournalInjection: a caller-supplied journal is used as-is
// (so ingest and resilience can share it) and survives Router.Close —
// the router only closes journals it created itself.
func TestSharedJournalInjection(t *testing.T) {
	shared, err := eventlog.New(eventlog.Config{Types: eventlog.StandardTypes()})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	shared.Append(eventlog.TypeCommitReject, "", "pre-existing entry", "")

	rt, _ := newTestCluster(t, 1, Config{EventLog: shared})
	if rt.EventLog() != shared {
		t.Fatal("router should adopt the injected journal")
	}
	m := rt.members["node0"]
	for i := 0; i < rt.cfg.FailAfter; i++ {
		rt.noteFailure(m, "boom")
	}
	evs := shared.Since(0, "", 0)
	if len(evs) != 2 || evs[0].Type != eventlog.TypeCommitReject || evs[1].Type != eventlog.TypeNodeDead {
		t.Fatalf("shared journal: %+v", evs)
	}
	rt.Close()
	// Still usable: Close must not have closed the shared journal.
	shared.Append(eventlog.TypeRollback, "", "after router close", "")
	if got := len(shared.Since(0, "", 0)); got != 3 {
		t.Fatalf("journal after router close: %d events, want 3", got)
	}
}

// TestAlertTransitionMintsIncident drives the SLO engine through a
// fault via the federation fakes and asserts the full active plane:
// journal edge, incident minted with the causal node_dead event, and
// resolution on recovery.
func TestAlertTransitionMintsIncident(t *testing.T) {
	rt, _ := fedRouter(t, 1, Config{
		SampleInterval: time.Second, // driven manually via ObserveNow
		SLOFastWindow:  5 * time.Second,
		SLOSlowWindow:  20 * time.Second,
		IncidentWindow: time.Hour,
	})
	base := time.Unix(200000, 0)

	// Healthy baseline: traffic flows, nothing shed.
	routed := rt.reg.Counter("cluster.router.routed")
	shed := rt.reg.Counter("cluster.router.shed")
	routed.Add(100)
	for i := 0; i < 25; i++ {
		rt.ObserveNow(base.Add(time.Duration(i) * time.Second))
		routed.Add(100)
	}

	// The causal event an operator should find inside the incident.
	rt.EventLog().Append(eventlog.TypeNodeDead, "n1", "injected", "")

	// Fault: every routed request sheds.
	for i := 25; i < 35; i++ {
		rt.ObserveNow(base.Add(time.Duration(i) * time.Second))
		routed.Add(100)
		shed.Add(100)
	}
	open := rt.Incidents().Incidents()
	if len(open) == 0 || open[0].State != incident.StateOpen {
		t.Fatalf("no open incident after sustained fault: %+v", open)
	}
	if open[0].Objective != "slo.read.availability" {
		t.Fatalf("incident objective %q", open[0].Objective)
	}

	// Recovery: shedding stops; the incident resolves and bundles the
	// injected kill event from its causal window.
	for i := 35; i < 80; i++ {
		rt.ObserveNow(base.Add(time.Duration(i) * time.Second))
		routed.Add(100)
	}
	all := rt.Incidents().Incidents()
	var resolved *incident.Incident
	for i := range all {
		if all[i].State == incident.StateResolved {
			resolved = &all[i]
		}
	}
	if resolved == nil {
		t.Fatalf("incident never resolved: %+v", all)
	}
	foundKill := false
	for _, e := range resolved.Events {
		if e.Type == eventlog.TypeNodeDead && e.Node == "n1" {
			foundKill = true
		}
	}
	if !foundKill {
		t.Fatalf("resolved incident missing causal node_dead event: %+v", resolved.Events)
	}
	// The journal carries the alert edges themselves too.
	crit := rt.EventLog().Since(0, eventlog.TypeAlertCritical, 0)
	okEvs := rt.EventLog().Since(0, eventlog.TypeAlertOK, 0)
	if len(crit) == 0 || len(okEvs) == 0 {
		t.Fatalf("journal alert edges: critical=%d ok=%d, want both > 0", len(crit), len(okEvs))
	}
}
