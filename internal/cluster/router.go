package cluster

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/eventlog"
	"hdmaps/internal/obs/incident"
	"hdmaps/internal/obs/notify"
	"hdmaps/internal/obs/slo"
	"hdmaps/internal/obs/timeseries"
	"hdmaps/internal/storage"
)

// The router is split by concern: this file holds lifecycle,
// membership and the HTTP surface; config.go the one config
// resolution; shard.go the per-node legs and the one fan-out every
// multi-node operation uses; read.go, write.go, handoff.go and
// listing.go the request paths built on it.

// Router fronts a fleet of tile servers as one origin: it routes every
// tile key to its R ring owners, reads at quorum with background
// read-repair, replicates writes with hinted handoff for dead owners,
// and exports the same /statz /metricz /tracez surface as a single
// node. It implements http.Handler for the storage /v1 API plus the
// meta endpoints.
type Router struct {
	cfg    Config
	log    *slog.Logger
	tracer *obs.Tracer
	reg    *obs.Registry
	httpc  *http.Client
	stats  *stats
	hints  *hintBuffer

	mu      sync.RWMutex
	ring    *Ring
	members map[string]*member

	ledger *tombstoneLedger
	// sweepMu serialises anti-entropy rounds (ticker vs SweepNow); ae is
	// only touched under it.
	sweepMu sync.Mutex
	ae      *aeState

	// Observability plane (nil when disabled): per-request latency
	// histogram, registry sampler, fleet federation, SLO engine, and
	// the anti-entropy freshness gauge fed from lastSweep (unix ms).
	// obsMu serialises observability rounds (obsLoop ticker vs
	// ObserveNow) — the sampler is not safe for concurrent sampling.
	obsMu     sync.Mutex
	latency   *obs.Histogram
	sampler   *timeseries.Sampler
	fleet     *fleet
	sloEng    *slo.Engine
	aeAge     *obs.Gauge
	lastSweep atomic.Int64
	// Active plane (nil when disabled): the event journal (/eventz),
	// incident manager (/incidentz), and push notifier. ownJournal
	// marks a journal the router built itself and must close.
	journal    *eventlog.Log
	ownJournal bool
	incidents  *incident.Manager
	notifier   *notify.Notifier

	repairCh chan repairJob
	stop     chan struct{}
	// closeMu serialises goBG against Close so bg.Add never races
	// bg.Wait: once draining is set under the lock, no new background
	// goroutine can start.
	closeMu  sync.Mutex
	bg       sync.WaitGroup
	started  atomic.Bool
	draining atomic.Bool
}

// NewRouter validates cfg and builds a stopped router; call Start to
// launch the failure detector and repair worker.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	cfg = cfg.withDefaults()
	names := make([]string, 0, len(cfg.Nodes))
	members := make(map[string]*member, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.Name == "" || n.Base == "" {
			return nil, fmt.Errorf("cluster: node needs name and base: %+v", n)
		}
		if err := obs.ValidateLabelValue(n.Name); err != nil {
			return nil, fmt.Errorf("cluster: node name %q: %w", n.Name, err)
		}
		if _, dup := members[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		n.Base = strings.TrimRight(n.Base, "/")
		// Nodes start optimistically alive; the first probe round
		// corrects any that are already dead.
		members[n.Name] = &member{node: n, alive: true}
		names = append(names, n.Name)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(obs.TracerConfig{Metrics: reg})
	}
	rt := &Router{
		cfg:      cfg,
		log:      obs.OrNop(cfg.Logger),
		tracer:   tracer,
		reg:      reg,
		stats:    newStats(reg, names),
		hints:    newHintBuffer(cfg.MaxHints),
		ring:     NewRing(names, cfg.VNodes),
		members:  members,
		ledger:   newTombstoneLedger(),
		ae:       newAEState(),
		repairCh: make(chan repairJob, cfg.MaxRepairQueue),
		stop:     make(chan struct{}),
	}
	rt.httpc = &http.Client{Transport: cfg.Transport}
	rt.latency = reg.Histogram("cluster.router.latency_seconds", nil)
	if err := rt.buildObservability(); err != nil {
		return nil, err
	}
	return rt, nil
}

// Registry exposes the router's metric registry (for /metricz mounting
// or test assertions).
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Tracer exposes the router's tracer.
func (rt *Router) Tracer() *obs.Tracer { return rt.tracer }

// Stats reads the router counters plus live hint/drain state.
func (rt *Router) Stats() StatsSnapshot {
	s := rt.stats.snapshot()
	s.HintsPending = rt.hints.pending()
	s.TombstonesPending = rt.ledger.pending()
	s.Draining = rt.draining.Load()
	return s
}

// Start launches the failure detector, the repair worker, the
// anti-entropy sweeper, and a one-shot recovery scan that rebuilds the
// hint buffer from durable parked copies a previous router left on the
// nodes' disks.
func (rt *Router) Start() {
	if !rt.started.CompareAndSwap(false, true) {
		return
	}
	rt.bg.Add(2)
	go rt.probeLoop()
	go rt.repairLoop()
	if rt.cfg.SweepInterval > 0 {
		rt.bg.Add(1)
		go rt.sweepLoop(rt.cfg.SweepInterval)
	}
	if rt.sampler != nil {
		rt.bg.Add(1)
		go rt.obsLoop(rt.cfg.SampleInterval)
	}
	rt.goBG(rt.recoverDurableHints)
}

// Close stops background work and waits for in-flight drains, repairs,
// and read finishers. The router sheds new proxied requests while
// closing.
func (rt *Router) Close() {
	rt.closeMu.Lock()
	if !rt.draining.CompareAndSwap(false, true) {
		rt.closeMu.Unlock()
		return
	}
	rt.closeMu.Unlock()
	close(rt.stop)
	rt.bg.Wait()
	// Hang up pooled node connections. A connection the transport dialed
	// for a leg that was answered or cancelled first may never have
	// carried a request; the node's graceful Shutdown counts such a
	// connection as active for its first 5 s and would wait on it.
	rt.httpc.CloseIdleConnections()
	// Quiesce the push plane after background work stops emitting:
	// Close drains every sink queue, so the delivery ledger balances
	// with pending at zero.
	if rt.notifier != nil {
		rt.notifier.Close()
	}
	if rt.ownJournal {
		_ = rt.journal.Close()
	}
}

// goBG runs fn on a tracked background goroutine, refusing once Close
// has begun (Close waits for everything started before it).
func (rt *Router) goBG(fn func()) bool {
	rt.closeMu.Lock()
	if rt.draining.Load() {
		rt.closeMu.Unlock()
		return false
	}
	rt.bg.Add(1)
	rt.closeMu.Unlock()
	go func() {
		defer rt.bg.Done()
		fn()
	}()
	return true
}

// memberList snapshots the membership for lock-free iteration.
func (rt *Router) memberList() []*member {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*member, 0, len(rt.members))
	for _, m := range rt.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].node.Name < out[j].node.Name })
	return out
}

// AddNode joins a node to the ring: the membership map gains a member
// and the ring is swapped whole, so in-flight owner lookups see either
// the old or the new circle, never a partial one. Keys the new node
// now owns converge via read-repair. Joining an existing name replaces
// its base URL.
func (rt *Router) AddNode(n Node) error {
	if n.Name == "" || n.Base == "" {
		return fmt.Errorf("cluster: node needs name and base: %+v", n)
	}
	if err := obs.ValidateLabelValue(n.Name); err != nil {
		return fmt.Errorf("cluster: node name %q: %w", n.Name, err)
	}
	n.Base = strings.TrimRight(n.Base, "/")
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.members[n.Name] = &member{node: n, alive: true}
	rt.ring = rt.ring.WithNode(n.Name)
	rt.event(eventlog.TypeNodeJoin, n.Name, n.Base, "")
	return nil
}

// RemoveNode leaves a node from the ring. Its pending hints stay
// buffered (they are dropped only by eviction) but will never drain.
func (rt *Router) RemoveNode(name string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.members, name)
	rt.ring = rt.ring.WithoutNode(name)
	rt.event(eventlog.TypeNodeLeave, name, "", "")
}

// Ring snapshots the current ring.
func (rt *Router) Ring() *Ring {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring
}

// replicas is the effective replication factor: the configured factor
// clamped to current membership under rt.mu.
func (rt *Router) replicas() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.cfg.replicasFor(len(rt.members))
}

// readQuorum / writeQuorum derive quorums from the effective (current
// membership) replication factor unless explicitly configured.
func (rt *Router) readQuorum() int  { return rt.cfg.readQuorumFor(rt.replicas()) }
func (rt *Router) writeQuorum() int { return rt.cfg.writeQuorumFor(rt.replicas()) }

// ownersFor resolves a key's owner set to live member handles (dead
// members included — callers decide whether to skip or hint).
func (rt *Router) ownersFor(key storage.TileKey) []*member {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	names := rt.ring.Owners(key, rt.cfg.replicasFor(len(rt.members)))
	out := make([]*member, 0, len(names))
	for _, n := range names {
		if m := rt.members[n]; m != nil {
			out = append(out, m)
		}
	}
	return out
}

// fallbackFor finds the first live non-owner walking clockwise past a
// key's owner set — the node that holds durable hint copies for it.
func (rt *Router) fallbackFor(key storage.TileKey, owners []*member) *member {
	isOwner := make(map[string]bool, len(owners))
	for _, m := range owners {
		isOwner[m.node.Name] = true
	}
	rt.mu.RLock()
	ring, members := rt.ring, rt.members
	rt.mu.RUnlock()
	var fb *member
	ring.walk(key, func(node string) bool {
		if isOwner[node] {
			return true
		}
		if m := members[node]; m != nil && m.Alive() {
			fb = m
			return false
		}
		return true
	})
	return fb
}

// ---- HTTP surface ----------------------------------------------------

// ServeHTTP routes meta endpoints locally and proxies the /v1 tile API
// to the ring. Accounting invariant: every /v1 request increments
// Routed and exactly one of Served, Shed, Errored.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
		return
	case "/readyz":
		if rt.draining.Load() {
			w.Header().Set("Retry-After", rt.retryAfterValue())
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, "draining\n")
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ready\n")
		return
	case "/statz":
		storage.WriteJSON(w, rt.Stats())
		return
	case "/clusterz":
		storage.WriteJSON(w, rt.Status())
		return
	case "/metricz":
		obs.MetricsHandler(rt.reg).ServeHTTP(w, r)
		return
	case "/tracez":
		obs.TracezHandler(rt.tracer).ServeHTTP(w, r)
		return
	case "/fleetz", "/alertz", "/eventz", "/incidentz":
		// One plane switch: buildObservability builds every piece these
		// endpoints serve, or none of them.
		if rt.sampler == nil {
			obs.WriteJSONError(w, http.StatusNotFound, "observability plane disabled")
			return
		}
		switch r.URL.Path {
		case "/fleetz":
			rt.handleFleetz(w, r)
		case "/alertz":
			slo.Handler(rt.sloEng).ServeHTTP(w, r)
		case "/eventz":
			eventlog.Handler(rt.journal).ServeHTTP(w, r)
		default:
			incident.Handler(rt.incidents).ServeHTTP(w, r)
		}
		return
	}
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		http.NotFound(w, r)
		return
	}

	rt.stats.routed.Inc()
	r, trace := obs.EnsureRequestTrace(r)
	w.Header().Set(obs.TraceHeader, trace)
	ctx := r.Context()
	if parent := obs.SanitizeTraceID(r.Header.Get(obs.SpanHeader)); parent != "" {
		ctx = obs.WithRemoteParent(ctx, parent)
	}
	ctx, span := rt.tracer.StartSpan(ctx, "router.request")
	span.SetAttr("method", r.Method)
	span.SetAttr("path", r.URL.Path)
	start := time.Now()
	defer func() {
		dur := time.Since(start)
		span.EndWith(dur)
		// Exemplars only for tail-sampled traces, so the stamped trace ID
		// is always resolvable on /tracez.
		rt.latency.ObserveWithExemplar(dur.Seconds(), span.SampledTraceID())
	}()
	r = r.WithContext(ctx)

	if rt.draining.Load() {
		span.Fail("draining")
		rt.shed(w, span, "router draining")
		return
	}

	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/"), "/")
	switch {
	case len(parts) == 2 && parts[1] == "layers":
		if r.Method != http.MethodGet {
			rt.clientError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		rt.handleLayers(w, r, span)
	case len(parts) == 3 && parts[1] == "tiles":
		if r.Method != http.MethodGet {
			rt.clientError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		rt.handleList(w, r, span, parts[2])
	case len(parts) == 5 && parts[1] == "tiles":
		key, err := storage.ParseTileKey(parts[2], parts[3], parts[4])
		if err != nil {
			rt.clientError(w, http.StatusBadRequest, err.Error())
			return
		}
		if storage.IsInternalLayer(key.Layer) {
			// Handoff and tombstone layers are cluster-internal; clients
			// never address them through the router.
			rt.clientError(w, http.StatusNotFound, "tile not found")
			return
		}
		span.SetAttr("layer", key.Layer)
		switch r.Method {
		case http.MethodGet:
			rt.handleTileGet(w, r, span, key)
		case http.MethodPut:
			rt.handleTilePut(w, r, span, key)
		case http.MethodDelete:
			rt.handleTileDelete(w, r, span, key)
		default:
			rt.clientError(w, http.StatusMethodNotAllowed, "method not allowed")
		}
	default:
		rt.clientError(w, http.StatusNotFound, "not found")
	}
}

func (rt *Router) retryAfterValue() string {
	secs := int(rt.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// shed refuses a request for lack of quorum: 503 + Retry-After,
// counted in Shed. Shed responses force-sample their trace so /tracez
// always has the evidence.
func (rt *Router) shed(w http.ResponseWriter, span *obs.Span, msg string) {
	span.ForceSample()
	rt.stats.shed.Inc()
	w.Header().Set("Retry-After", rt.retryAfterValue())
	obs.WriteJSONError(w, http.StatusServiceUnavailable, msg)
}

// clientError answers a malformed or unroutable request definitively
// (4xx), counted in Served — the router did its job.
func (rt *Router) clientError(w http.ResponseWriter, status int, msg string) {
	rt.stats.served.Inc()
	obs.WriteJSONError(w, status, msg)
}

// internalError counts a router-side failure.
func (rt *Router) internalError(w http.ResponseWriter, span *obs.Span, msg string) {
	span.Fail(msg)
	rt.stats.errored.Inc()
	obs.WriteJSONError(w, http.StatusInternalServerError, msg)
}

// ClusterStatus is the /clusterz document: membership health, ring
// shape, quorum parameters, and handoff state in one read.
type ClusterStatus struct {
	Replicas    int            `json:"replicas"`
	ReadQuorum  int            `json:"read_quorum"`
	WriteQuorum int            `json:"write_quorum"`
	VNodes      int            `json:"vnodes"`
	Members     []MemberStatus `json:"members"`
	HintsByNode map[string]int `json:"hints_by_node,omitempty"`
	// Tombstones is the pending-deletion ledger: markers written but not
	// yet garbage-collected, sorted by key.
	Tombstones []TombstoneStatus `json:"tombstones,omitempty"`
	Stats      StatsSnapshot     `json:"stats"`
}

// TombstoneStatus is one pending deletion marker in /clusterz.
type TombstoneStatus struct {
	Layer      string `json:"layer"`
	TX         int32  `json:"tx"`
	TY         int32  `json:"ty"`
	Clock      uint64 `json:"clock"`
	Created    uint64 `json:"created"`
	TTLSeconds uint64 `json:"ttl"`
}

// Status assembles the /clusterz document.
func (rt *Router) Status() ClusterStatus {
	ms := rt.memberList()
	out := ClusterStatus{
		Replicas:    rt.replicas(),
		ReadQuorum:  rt.readQuorum(),
		WriteQuorum: rt.writeQuorum(),
		VNodes:      rt.Ring().vnodes,
		Members:     make([]MemberStatus, 0, len(ms)),
		HintsByNode: rt.hints.pendingByTarget(),
		Tombstones:  rt.tombstoneStatus(),
		Stats:       rt.Stats(),
	}
	for _, m := range ms {
		out.Members = append(out.Members, m.status())
	}
	return out
}

func (rt *Router) tombstoneStatus() []TombstoneStatus {
	snap := rt.ledger.snapshot()
	keys := make([]storage.TileKey, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	out := make([]TombstoneStatus, len(keys))
	for i, k := range keys {
		e := snap[k]
		out[i] = TombstoneStatus{
			Layer: k.Layer, TX: k.TX, TY: k.TY,
			Clock: e.Clock, Created: e.Created, TTLSeconds: e.TTLSeconds,
		}
	}
	return out
}

// keyLess is the cluster's one key order — layer, then tx, then ty —
// used wherever keys are listed or replayed deterministically.
func keyLess(a, b storage.TileKey) bool {
	if a.Layer != b.Layer {
		return a.Layer < b.Layer
	}
	if a.TX != b.TX {
		return a.TX < b.TX
	}
	return a.TY < b.TY
}
