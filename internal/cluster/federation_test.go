package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/slo"
)

// fakeMetricsNode is a shard stand-in serving a mutable /metricz
// snapshot. Setting truncate makes the next scrapes return a half-
// written body — a node dying between accept and flush.
type fakeMetricsNode struct {
	mu       sync.Mutex
	snap     obs.RegistrySnapshot
	truncate bool
	scrapes  int
}

func (f *fakeMetricsNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch r.URL.Path {
	case "/metricz":
		f.scrapes++
		if f.truncate {
			_, _ = w.Write([]byte(`{"counters":{"resilience.http.submitted":`))
			return
		}
		_ = json.NewEncoder(w).Encode(f.snap)
	case "/healthz":
		w.WriteHeader(http.StatusOK)
	default:
		http.NotFound(w, r)
	}
}

func (f *fakeMetricsNode) setCounter(name string, v uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.snap.Counters == nil {
		f.snap.Counters = map[string]uint64{}
	}
	f.snap.Counters[name] = v
}

func (f *fakeMetricsNode) setHistP99(name string, count uint64, p99 float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.snap.Histograms == nil {
		f.snap.Histograms = map[string]obs.HistogramSnapshot{}
	}
	f.snap.Histograms[name] = obs.HistogramSnapshot{Count: count, P99: p99}
}

func (f *fakeMetricsNode) setTruncate(v bool) {
	f.mu.Lock()
	f.truncate = v
	f.mu.Unlock()
}

// fedRouter builds an unstarted router over n fake metric nodes so
// tests drive scrape rounds deterministically via scrapeRound.
func fedRouter(t *testing.T, n int, cfg Config) (*Router, []*fakeMetricsNode) {
	t.Helper()
	fakes := make([]*fakeMetricsNode, n)
	for i := range fakes {
		fakes[i] = &fakeMetricsNode{}
		srv := httptest.NewServer(fakes[i])
		t.Cleanup(srv.Close)
		cfg.Nodes = append(cfg.Nodes, Node{Name: fmt.Sprintf("n%d", i+1), Base: srv.URL})
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if rt.fleet == nil {
		t.Fatal("observability plane not built")
	}
	return rt, fakes
}

func lastOf(t *testing.T, fn *fleetNode, name string) float64 {
	t.Helper()
	v, ok := fn.store.Last(name)
	if !ok {
		t.Fatalf("series %s: no valid sample", name)
	}
	return v
}

func TestFederationScrapeRates(t *testing.T) {
	rt, fakes := fedRouter(t, 2, Config{})
	t0 := time.Unix(100000, 0)

	fakes[0].setCounter("resilience.http.submitted", 100)
	fakes[1].setCounter("resilience.http.submitted", 40)
	rt.fleet.scrapeRound(t0)

	// First sight is a baseline: no uptime replayed as a spike.
	fn1 := rt.fleet.nodeFor("n1")
	if got := lastOf(t, fn1, "resilience.http.submitted"); got != 0 {
		t.Fatalf("baseline rate = %v, want 0", got)
	}

	fakes[0].setCounter("resilience.http.submitted", 150)
	fakes[1].setCounter("resilience.http.submitted", 45)
	rt.fleet.scrapeRound(t0.Add(time.Second))
	if got := lastOf(t, fn1, "resilience.http.submitted"); math.Abs(got-50) > 1e-9 {
		t.Fatalf("n1 rate = %v, want 50/s", got)
	}
	fn2 := rt.fleet.nodeFor("n2")
	if got := lastOf(t, fn2, "resilience.http.submitted"); math.Abs(got-5) > 1e-9 {
		t.Fatalf("n2 rate = %v, want 5/s", got)
	}
	fn1.mu.Lock()
	defer fn1.mu.Unlock()
	if fn1.stale || fn1.scrapes != 2 || fn1.failures != 0 {
		t.Fatalf("n1 state: stale=%v scrapes=%d failures=%d", fn1.stale, fn1.scrapes, fn1.failures)
	}
}

func TestFederationDiesMidScrapeNoPartialMerge(t *testing.T) {
	rt, fakes := fedRouter(t, 1, Config{})
	t0 := time.Unix(100000, 0)
	fn := rt.fleet.nodeFor("n1")

	fakes[0].setCounter("resilience.http.submitted", 100)
	rt.fleet.scrapeRound(t0)
	fakes[0].setCounter("resilience.http.submitted", 130)
	rt.fleet.scrapeRound(t0.Add(time.Second))
	ticksBefore := fn.store.Ticks()
	rateBefore := lastOf(t, fn, "resilience.http.submitted")

	// The node now dies mid-body: the scrape decodes to an error and the
	// round must commit nothing for this node.
	fakes[0].setTruncate(true)
	rt.fleet.scrapeRound(t0.Add(2 * time.Second))

	if got := fn.store.Ticks(); got != ticksBefore {
		t.Fatalf("store ticked on a failed scrape: %d -> %d", ticksBefore, got)
	}
	if got := lastOf(t, fn, "resilience.http.submitted"); got != rateBefore {
		t.Fatalf("partial merge leaked: rate %v, want last committed %v", got, rateBefore)
	}
	fn.mu.Lock()
	stale, lastErr, failures := fn.stale, fn.lastErr, fn.failures
	fn.mu.Unlock()
	if !stale || failures != 1 || lastErr == "" {
		t.Fatalf("failed scrape: stale=%v failures=%d lastErr=%q", stale, failures, lastErr)
	}

	// And the /fleetz document says so explicitly.
	doc := rt.FleetStatus(0)
	var ns *FleetNodeStatus
	for i := range doc.Nodes {
		if doc.Nodes[i].Name == "n1" {
			ns = &doc.Nodes[i]
		}
	}
	if ns == nil || !ns.Stale || ns.LastError == "" {
		t.Fatalf("fleetz node: %+v, want stale with error", ns)
	}
}

func TestFederationDeadNodeSkippedNotScraped(t *testing.T) {
	rt, fakes := fedRouter(t, 1, Config{})
	t0 := time.Unix(100000, 0)
	fakes[0].setCounter("resilience.http.submitted", 10)
	rt.fleet.scrapeRound(t0)

	// The failure detector condemns the node: federation must not burn a
	// scrape timeout on the corpse.
	rt.mu.RLock()
	m := rt.members["n1"]
	rt.mu.RUnlock()
	m.mu.Lock()
	m.alive = false
	m.mu.Unlock()

	fakes[0].mu.Lock()
	scrapesBefore := fakes[0].scrapes
	fakes[0].mu.Unlock()
	rt.fleet.scrapeRound(t0.Add(time.Second))
	fakes[0].mu.Lock()
	scrapesAfter := fakes[0].scrapes
	fakes[0].mu.Unlock()
	if scrapesAfter != scrapesBefore {
		t.Fatalf("dead node was scraped anyway (%d -> %d)", scrapesBefore, scrapesAfter)
	}
	fn := rt.fleet.nodeFor("n1")
	fn.mu.Lock()
	defer fn.mu.Unlock()
	if !fn.stale || fn.lastErr != "node down" {
		t.Fatalf("dead node state: stale=%v lastErr=%q", fn.stale, fn.lastErr)
	}
}

func TestFederationReviveSameNameNoDoubleCount(t *testing.T) {
	rt, fakes := fedRouter(t, 1, Config{})
	t0 := time.Unix(100000, 0)
	fn := rt.fleet.nodeFor("n1")

	fakes[0].setCounter("resilience.http.submitted", 100)
	rt.fleet.scrapeRound(t0)
	fakes[0].setCounter("resilience.http.submitted", 150)
	rt.fleet.scrapeRound(t0.Add(time.Second))
	if got := lastOf(t, fn, "resilience.http.submitted"); math.Abs(got-50) > 1e-9 {
		t.Fatalf("pre-restart rate = %v, want 50/s", got)
	}

	// Restart under the same name: totals drop to the post-boot value.
	// The delta clamps to the new total — the ring continues, and the
	// 150 requests already federated are not re-counted.
	fakes[0].setCounter("resilience.http.submitted", 30)
	rt.fleet.scrapeRound(t0.Add(2 * time.Second))
	if got := lastOf(t, fn, "resilience.http.submitted"); math.Abs(got-30) > 1e-9 {
		t.Fatalf("post-restart rate = %v, want clamp to 30/s", got)
	}
	if got := fn.store.Ticks(); got != 3 {
		t.Fatalf("ticks = %d, want a continuous ring of 3", got)
	}
	fn.mu.Lock()
	defer fn.mu.Unlock()
	if fn.stale {
		t.Fatal("revived node still marked stale")
	}
}

func TestFederationCardinalityOverflow(t *testing.T) {
	rt, fakes := fedRouter(t, 3, Config{MaxFleetNodes: 1})
	t0 := time.Unix(100000, 0)

	for i, f := range fakes {
		f.setCounter("resilience.http.submitted", uint64(100*(i+1)))
		f.setHistP99("resilience.http.latency_seconds", 10, float64(i+1)*0.1)
	}
	rt.fleet.scrapeRound(t0)
	for i, f := range fakes {
		f.setCounter("resilience.http.submitted", uint64(100*(i+1))+uint64(10*(i+1)))
		f.setHistP99("resilience.http.latency_seconds", 20, float64(i+1)*0.1)
	}
	rt.fleet.scrapeRound(t0.Add(time.Second))

	// n1 owns a store; n2 and n3 collapsed into the shared reserved
	// series: rates sum (20+30), quantiles keep the fleet-worst (0.3).
	fn2, fn3 := rt.fleet.nodeFor("n2"), rt.fleet.nodeFor("n3")
	if !fn2.shared || !fn3.shared {
		t.Fatalf("overflow members not shared: n2=%v n3=%v", fn2.shared, fn3.shared)
	}
	if fn2.store != fn3.store {
		t.Fatal("overflow members hold different stores")
	}
	if rt.fleet.nodeFor("n1").shared {
		t.Fatal("first member should own its store")
	}
	if got := lastOf(t, fn2, "resilience.http.submitted"); math.Abs(got-50) > 1e-9 {
		t.Fatalf("shared rate = %v, want 20+30", got)
	}
	if got := lastOf(t, fn2, "resilience.http.latency_seconds.p99"); math.Abs(got-0.3) > 1e-9 {
		t.Fatalf("shared p99 = %v, want fleet-worst 0.3", got)
	}
	// The shared store ticks once per round, not once per member.
	if got := fn2.store.Ticks(); got != 2 {
		t.Fatalf("shared ticks = %d, want 2", got)
	}

	doc := rt.FleetStatus(0)
	byName := map[string]FleetNodeStatus{}
	for _, ns := range doc.Nodes {
		byName[ns.Name] = ns
	}
	if ns := byName["n2"]; ns.Role != "overflow" || ns.CollapsedInto != fleetOtherNode {
		t.Fatalf("n2 fleetz entry: %+v", ns)
	}
	other, ok := byName[fleetOtherNode]
	if !ok {
		t.Fatalf("no %q pseudo-node in fleetz: %+v", fleetOtherNode, doc.Nodes)
	}
	if math.Abs(other.Summary.QPS-50) > 1e-9 {
		t.Fatalf("other QPS = %v, want summed 50", other.Summary.QPS)
	}
	if len(other.Series) == 0 {
		t.Fatal("other pseudo-node carries no series")
	}
}

func TestFleetzAlertzEndpoints(t *testing.T) {
	rt, fakes := fedRouter(t, 1, Config{})
	fakes[0].setCounter("resilience.http.submitted", 5)
	rt.ObserveNow(time.Unix(100000, 0))
	rt.ObserveNow(time.Unix(100001, 0))

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/fleetz?points=5", nil))
	if rec.Code != 200 {
		t.Fatalf("fleetz status %d: %s", rec.Code, rec.Body.String())
	}
	var doc FleetStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Nodes) != 2 || doc.Nodes[0].Role != "router" || doc.Nodes[1].Name != "n1" {
		t.Fatalf("fleetz nodes: %+v", doc.Nodes)
	}
	if doc.Nodes[0].Scrapes != 2 {
		t.Fatalf("router samples = %d, want 2", doc.Nodes[0].Scrapes)
	}
	found := false
	for _, ss := range doc.Nodes[0].Series {
		if ss.Name == "cluster.router.routed" {
			found = true
		}
	}
	if !found {
		t.Fatal("router series missing cluster.router.routed")
	}

	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/alertz", nil))
	if rec.Code != 200 {
		t.Fatalf("alertz status %d", rec.Code)
	}
	var alerts slo.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &alerts); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, a := range alerts.Alerts {
		names[a.Name] = true
	}
	for _, want := range []string{"slo.read.availability", "slo.read.latency_p99", "slo.read.quorum", "slo.ingest.gate_pass", "slo.sweep.cadence"} {
		if !names[want] {
			t.Fatalf("shipped objective %s missing from alertz: %v", want, names)
		}
	}

	rec = httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/fleetz?points=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad points: status %d, want 400", rec.Code)
	}
}

func TestObservabilityPlaneDisabled(t *testing.T) {
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
	if rt.sampler != nil || rt.fleet != nil || rt.sloEng != nil {
		t.Fatal("negative SampleInterval should disable the plane")
	}
	// Every plane endpoint answers the same JSON 404 shape.
	for _, path := range []string{"/fleetz", "/alertz", "/eventz", "/incidentz"} {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 404 {
			t.Errorf("%s: status %d, want 404 when disabled", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", path, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: 404 body not a JSON error: %q", path, rec.Body.String())
		}
	}
	if rt.FleetStatus(0) != nil || rt.SLOAlerts() != nil {
		t.Fatal("disabled plane should report nil status")
	}
}

// TestSLOAlertLifecycle drives the router's own serving loop through a
// fault: healthy traffic holds ok, killing every shard sheds reads
// until the availability SLO goes critical (with a resolvable exemplar
// trace), and reviving the shards clears it.
func TestSLOAlertLifecycle(t *testing.T) {
	rt, _ := fedRouter(t, 3, Config{
		SampleInterval: time.Second, // driven manually via ObserveNow
		SLOFastWindow:  5 * time.Second,
		SLOSlowWindow:  20 * time.Second,
	})
	now := time.Unix(200000, 0)
	get := func() int {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tiles/lanes/1/2", nil))
		return rec.Code
	}
	alertFor := func(name string) slo.Alert {
		for _, a := range rt.SLOAlerts() {
			if a.Name == name {
				return a
			}
		}
		t.Fatalf("no alert %s", name)
		return slo.Alert{}
	}

	// Healthy: the fakes 404 every tile read — an authoritative miss is
	// a served answer, not an error.
	for i := 0; i < 25; i++ {
		for j := 0; j < 4; j++ {
			if code := get(); code != 404 {
				t.Fatalf("healthy read: status %d, want 404", code)
			}
		}
		now = now.Add(time.Second)
		rt.ObserveNow(now)
	}
	if a := alertFor("slo.read.availability"); a.State != "ok" {
		t.Fatalf("healthy: %+v, want ok", a)
	}

	// Fault: every shard dies. Reads fail their quorum and shed.
	for _, m := range rt.memberList() {
		m.mu.Lock()
		m.alive = false
		m.mu.Unlock()
	}
	for i := 0; i < 25; i++ {
		for j := 0; j < 4; j++ {
			if code := get(); code != 503 {
				t.Fatalf("faulted read: status %d, want 503", code)
			}
		}
		now = now.Add(time.Second)
		rt.ObserveNow(now)
	}
	crit := alertFor("slo.read.availability")
	if crit.State != "critical" {
		t.Fatalf("fault: %+v, want critical", crit)
	}
	if crit.ExemplarTraceID == "" {
		t.Fatal("critical alert carries no exemplar trace ID")
	}
	// The exemplar must resolve on /tracez — shed responses force-sample
	// their trace precisely so this lookup never dangles.
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?trace="+crit.ExemplarTraceID, nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), crit.ExemplarTraceID) {
		t.Fatalf("exemplar %s not resolvable on /tracez: status %d", crit.ExemplarTraceID, rec.Code)
	}

	// Lift the fault: both windows drain and the alert clears.
	for _, m := range rt.memberList() {
		m.mu.Lock()
		m.alive = true
		m.strikes = 0
		m.mu.Unlock()
	}
	for i := 0; i < 60; i++ {
		for j := 0; j < 4; j++ {
			get()
		}
		now = now.Add(time.Second)
		rt.ObserveNow(now)
	}
	cleared := alertFor("slo.read.availability")
	if cleared.State != "ok" {
		t.Fatalf("recovered: %+v, want ok", cleared)
	}
	if cleared.Transitions < 2 {
		t.Fatalf("transitions = %d, want >= 2 (ok->critical->ok)", cleared.Transitions)
	}
}
