package cluster

// Federation: the router scrapes every shard's /metricz on the
// observability sampling cadence and merges the snapshots into
// per-node time-series stores, served together with the router's own
// sampled history and the SLO alert set on /fleetz. The rules that
// keep the merge honest:
//
//   - full-decode-before-commit: a scrape that dies mid-body (node
//     killed between accept and flush) decodes to an error and commits
//     nothing — a node's history never contains a partial round;
//   - staleness is explicit: a dead or unreachable node keeps its last
//     committed series, marked stale=true, and the failure detector
//     gates scraping so federation never blocks ShardTimeout on a
//     known corpse;
//   - revival is reset-safe: counter deltas clamp to the post-restart
//     total when a scrape comes back below the previous one, so a
//     rebooted node's ring continues without double-counting history
//     it already reported;
//   - cardinality is bounded: at most MaxFleetNodes members get their
//     own store; the overflow shares one reserved "other" store (rates
//     and gauges sum, quantiles take the fleet-worst max).

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/slo"
	"hdmaps/internal/obs/timeseries"
)

// fleetOtherNode is the reserved pseudo-node absorbing members beyond
// the MaxFleetNodes bound — the same catch-all convention as metric
// label domains.
const fleetOtherNode = obs.OtherLabel

// fleet is the router's federation layer: one scrape state per member
// plus the shared overflow store.
type fleet struct {
	rt       *Router
	interval time.Duration
	capacity int
	maxNodes int

	mu    sync.RWMutex
	nodes map[string]*fleetNode
	named int               // members holding their own store
	other *timeseries.Store // shared overflow store, created on demand
}

// fleetNode is one member's scrape state. The store pointer is either
// the node's own ring set or the shared overflow store (shared=true).
type fleetNode struct {
	name string

	mu         sync.Mutex
	store      *timeseries.Store
	shared     bool
	prevCount  map[string]uint64 // counter totals at the last committed scrape
	prevHist   map[string]uint64 // histogram counts at the last committed scrape
	lastScrape time.Time
	lastErr    string
	stale      bool
	scrapes    uint64
	failures   uint64
}

func newFleet(rt *Router, interval time.Duration, capacity, maxNodes int) *fleet {
	return &fleet{
		rt:       rt,
		interval: interval,
		capacity: capacity,
		maxNodes: maxNodes,
		nodes:    make(map[string]*fleetNode),
	}
}

// nodeFor returns the member's scrape state, creating it on first
// sight. The first MaxFleetNodes distinct members get their own store;
// later arrivals share the reserved overflow store.
func (f *fleet) nodeFor(name string) *fleetNode {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fn, ok := f.nodes[name]; ok {
		return fn
	}
	fn := &fleetNode{
		name:      name,
		prevCount: make(map[string]uint64),
		prevHist:  make(map[string]uint64),
	}
	if f.named < f.maxNodes {
		fn.store = timeseries.NewStore(f.capacity)
		f.named++
	} else {
		if f.other == nil {
			f.other = timeseries.NewStore(f.capacity)
		}
		fn.store = f.other
		fn.shared = true
	}
	f.nodes[name] = fn
	return fn
}

// scrapeRound federates one round: every live member is scraped
// concurrently, each successful full decode is committed to that
// member's store, and overflow members merge into the shared store
// under a single shared tick.
func (f *fleet) scrapeRound(now time.Time) {
	ms := f.rt.memberList()
	type outcome struct {
		fn   *fleetNode
		snap *obs.RegistrySnapshot
	}
	results := make([]outcome, len(ms))
	var wg sync.WaitGroup
	for i, m := range ms {
		fn := f.nodeFor(m.node.Name)
		results[i].fn = fn
		if !m.Alive() {
			// The failure detector already condemned this node; don't
			// burn a scrape timeout on it. Its series go stale in place.
			fn.markStale("node down")
			continue
		}
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			snap, err := f.scrape(m)
			if err != nil {
				results[i].fn.markStale(err.Error())
				return
			}
			results[i].snap = snap
		}(i, m)
	}
	wg.Wait()

	sharedTicked := false
	for _, res := range results {
		if res.snap == nil {
			continue
		}
		if res.fn.shared {
			if !sharedTicked {
				f.mu.RLock()
				other := f.other
				f.mu.RUnlock()
				other.Tick(now)
				sharedTicked = true
			}
			res.fn.commit(now, res.snap, f.interval)
			continue
		}
		res.fn.store.Tick(now)
		res.fn.commit(now, res.snap, f.interval)
	}
}

// scrape fetches one member's /metricz and decodes it completely
// before returning — the commit-or-nothing half of the no-partial-
// merge rule.
func (f *fleet) scrape(m *member) (*obs.RegistrySnapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), f.rt.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.node.Base+"/metricz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.rt.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("metricz status " + resp.Status)
	}
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func (fn *fleetNode) markStale(reason string) {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	fn.stale = true
	fn.lastErr = reason
	fn.failures++
}

// commit lands one fully-decoded snapshot: counters become per-second
// rates (reset-clamped), gauges copy through, histograms contribute an
// observation rate plus the snapshot's p50/p95/p99. The caller has
// already ticked the target store for this round.
func (fn *fleetNode) commit(now time.Time, snap *obs.RegistrySnapshot, interval time.Duration) {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	dt := interval.Seconds()
	if !fn.lastScrape.IsZero() {
		if d := now.Sub(fn.lastScrape).Seconds(); d > 0 {
			dt = d
		}
	}
	for name, v := range snap.Counters {
		prev, seen := fn.prevCount[name]
		fn.prevCount[name] = v
		var d uint64
		switch {
		case !seen:
			// First sight is a baseline, not growth — a freshly federated
			// node must not replay its whole uptime as one spike.
			d = 0
		case v < prev:
			// Counter reset: the node restarted under the same name. Count
			// only the post-restart total; the ring buffer continues.
			d = v
		default:
			d = v - prev
		}
		fn.setRate(name, float64(d)/dt)
	}
	for name, v := range snap.Gauges {
		fn.setGauge(name, float64(v))
	}
	for name, h := range snap.Histograms {
		prev, seen := fn.prevHist[name]
		fn.prevHist[name] = h.Count
		var d uint64
		switch {
		case !seen:
			d = 0
		case h.Count < prev:
			d = h.Count
		default:
			d = h.Count - prev
		}
		fn.setRate(name+".rate", float64(d)/dt)
		fn.setQuantile(name+".p50", h.P50)
		fn.setQuantile(name+".p95", h.P95)
		fn.setQuantile(name+".p99", h.P99)
	}
	fn.lastScrape = now
	fn.stale = false
	fn.lastErr = ""
	fn.scrapes++
}

// Setters split on sharedness: an owned store takes values as-is; the
// shared overflow store aggregates — rates and gauges sum across its
// members, quantiles keep the worst.
func (fn *fleetNode) setRate(name string, v float64) {
	sr := fn.store.Ensure(name, timeseries.KindRate)
	if fn.shared {
		sr.Add(v)
		return
	}
	sr.Set(v)
}

func (fn *fleetNode) setGauge(name string, v float64) {
	sr := fn.store.Ensure(name, timeseries.KindGauge)
	if fn.shared {
		sr.Add(v)
		return
	}
	sr.Set(v)
}

func (fn *fleetNode) setQuantile(name string, v float64) {
	sr := fn.store.Ensure(name, timeseries.KindQuantile)
	if fn.shared {
		sr.Max(v)
		return
	}
	sr.Set(v)
}

// ---- /fleetz ---------------------------------------------------------

// FleetSummary is the per-node dashboard row: the numbers hdmapctl top
// renders.
type FleetSummary struct {
	// QPS is the node's request admission rate (router: routed rate).
	QPS float64 `json:"qps"`
	// P99Seconds is the worst p99 across the node's latency histograms.
	P99Seconds float64 `json:"p99_seconds"`
	// ShedPerSec / ErrorsPerSec are the refusal and failure rates.
	ShedPerSec   float64 `json:"shed_per_sec"`
	ErrorsPerSec float64 `json:"errors_per_sec"`
	// HintsPending is the router's count of unreplayed hints parked for
	// this node (router row: total pending).
	HintsPending int `json:"hints_pending"`
	// TombstonesPending is the pending-deletion ledger size (router row
	// only — the ledger is cluster-wide).
	TombstonesPending int `json:"tombstones_pending"`
}

// FleetNodeStatus is one node's entry in the /fleetz document.
type FleetNodeStatus struct {
	Name  string `json:"name"`
	Role  string `json:"role"` // "router", "shard", or "overflow"
	Alive bool   `json:"alive"`
	// Stale means the last scrape round did not commit: the series below
	// are the last committed history, not the present.
	Stale bool `json:"stale"`
	// CollapsedInto names the pseudo-node absorbing this member's series
	// when the fleet exceeded MaxFleetNodes.
	CollapsedInto string    `json:"collapsed_into,omitempty"`
	LastScrape    time.Time `json:"last_scrape,omitzero"`
	LastError     string    `json:"last_error,omitempty"`
	Scrapes       uint64    `json:"scrapes"`
	Failures      uint64    `json:"failures"`

	Summary FleetSummary                `json:"summary"`
	Series  []timeseries.SeriesSnapshot `json:"series,omitempty"`
}

// FleetStatus is the /fleetz document: the federated per-node view,
// the router's own sampled history, and the active alert set.
type FleetStatus struct {
	GeneratedAt    time.Time         `json:"generated_at"`
	SampleInterval string            `json:"sample_interval"`
	MaxNodes       int               `json:"max_nodes"`
	Nodes          []FleetNodeStatus `json:"nodes"`
	Alerts         []slo.Alert       `json:"alerts,omitempty"`
}

// FleetStatus assembles the /fleetz document with up to points history
// points per series (0 = full ring). Nil when the observability plane
// is disabled.
func (rt *Router) FleetStatus(points int) *FleetStatus {
	if rt.fleet == nil {
		return nil
	}
	hintsByNode := rt.hints.pendingByTarget()
	out := &FleetStatus{
		GeneratedAt:    time.Now(),
		SampleInterval: rt.cfg.SampleInterval.String(),
		MaxNodes:       rt.fleet.maxNodes,
	}
	if rt.sloEng != nil {
		out.Alerts = rt.sloEng.Alerts()
	}

	// The router itself is the first node: its history comes from the
	// in-process sampler, not a scrape.
	if rt.sampler != nil {
		snaps := rt.sampler.Store().Snapshot(points)
		sum := summaryFrom(snaps,
			"cluster.router.routed", "cluster.router.shed", "cluster.router.errored")
		sum.HintsPending = rt.hints.pending()
		sum.TombstonesPending = rt.ledger.pending()
		last, _ := rt.sampler.Store().LastTick()
		out.Nodes = append(out.Nodes, FleetNodeStatus{
			Name:       "router",
			Role:       "router",
			Alive:      true,
			LastScrape: last,
			Scrapes:    rt.sampler.Store().Ticks(),
			Summary:    sum,
			Series:     snaps,
		})
	}

	var overflowUsed bool
	for _, m := range rt.memberList() {
		fn := rt.fleet.nodeFor(m.node.Name)
		fn.mu.Lock()
		ns := FleetNodeStatus{
			Name:       fn.name,
			Role:       "shard",
			Alive:      m.Alive(),
			Stale:      fn.stale,
			LastScrape: fn.lastScrape,
			LastError:  fn.lastErr,
			Scrapes:    fn.scrapes,
			Failures:   fn.failures,
		}
		shared := fn.shared
		store := fn.store
		fn.mu.Unlock()
		if shared {
			ns.Role = "overflow"
			ns.CollapsedInto = fleetOtherNode
			overflowUsed = true
		} else {
			snaps := store.Snapshot(points)
			ns.Summary = summaryFrom(snaps,
				"resilience.http.submitted", "resilience.http.shed", "resilience.http.errored")
			ns.Summary.HintsPending = hintsByNode[fn.name]
			ns.Series = snaps
		}
		out.Nodes = append(out.Nodes, ns)
	}
	if overflowUsed {
		rt.fleet.mu.RLock()
		other := rt.fleet.other
		rt.fleet.mu.RUnlock()
		snaps := other.Snapshot(points)
		sum := summaryFrom(snaps,
			"resilience.http.submitted", "resilience.http.shed", "resilience.http.errored")
		out.Nodes = append(out.Nodes, FleetNodeStatus{
			Name:    fleetOtherNode,
			Role:    "overflow",
			Alive:   true,
			Summary: sum,
			Series:  snaps,
		})
	}
	return out
}

// summaryFrom derives the dashboard row from a series snapshot set:
// the named qps/shed/error rates plus the worst latency p99 present.
func summaryFrom(snaps []timeseries.SeriesSnapshot, qpsName, shedName, errName string) FleetSummary {
	var sum FleetSummary
	lastOf := func(ss timeseries.SeriesSnapshot) (float64, bool) {
		if len(ss.Points) == 0 {
			return 0, false
		}
		return ss.Points[len(ss.Points)-1].V, true
	}
	for _, ss := range snaps {
		v, ok := lastOf(ss)
		if !ok {
			continue
		}
		switch ss.Name {
		case qpsName:
			sum.QPS = v
		case shedName:
			sum.ShedPerSec = v
		case errName:
			sum.ErrorsPerSec = v
		}
		if strings.HasSuffix(ss.Name, ".p99") && strings.Contains(ss.Name, "latency") && v > sum.P99Seconds {
			sum.P99Seconds = v
		}
	}
	return sum
}
