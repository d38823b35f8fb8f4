package resilience

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/eventlog"
)

// ClientIDHeader names the requesting client for per-client rate
// limiting. Absent, the client is identified by remote address, so
// anonymous stampedes are still contained per source host.
const ClientIDHeader = "X-Client-Id"

// ShedHeader marks a response shed by the resilience layer's admission
// policy, naming the stage that refused it: "draining", "admission",
// or "rate-limit". The header partitions responses exactly as the
// counters do: it is present iff the request was counted in
// Stats.Shed, so load tooling classifying by header agrees with
// /statz. Deadline expiries are errors (counted in Errored) and carry
// Retry-After but no ShedHeader.
const ShedHeader = "X-Overload"

// Config tunes the overload policy. The zero value resolves to the
// defaults documented per field.
type Config struct {
	// MaxConcurrent is the admission semaphore capacity in weight units
	// (default 64).
	MaxConcurrent int64
	// WriteWeight is the admission weight of a mutating request —
	// decode-validating a tile PUT costs more than serving a cached GET
	// (default 4, clamped to MaxConcurrent). Reads weigh 1.
	WriteWeight int64
	// MaxWait bounds how long a request may queue for admission before
	// being shed (default 100ms). Shedding beats queueing: a vehicle
	// would rather hear "retry in 1s" than wait unboundedly.
	MaxWait time.Duration
	// RequestTimeout is the per-request deadline once admitted
	// (default 5s).
	RequestTimeout time.Duration
	// RetryAfter is the hint attached to shed responses (default 1s).
	// Rate-limited responses use the limiter's exact refill time when
	// it is longer.
	RetryAfter time.Duration
	// RatePerClient is each client's sustained request rate in
	// requests/second; 0 disables per-client limiting.
	RatePerClient float64
	// RateBurst is the per-client burst allowance (default
	// ceil(RatePerClient), at least 1).
	RateBurst int
	// MaxClients bounds the rate-limiter's client map (default 4096).
	MaxClients int
	// CacheSize is the hot-tile response cache capacity in responses
	// (default 1024; negative disables caching).
	CacheSize int
	// Now is the clock used by the rate limiter (wall clock when nil);
	// tests inject a stepped fake.
	Now func() time.Time
	// Metrics is the registry the handler's counters and latency
	// histograms register in. Nil gets a private registry — the handler
	// still serves /metricz, but its series don't mix into the
	// process-wide namespace, which is what tests asserting exact
	// counts want. Production callers pass obs.Default().
	Metrics *obs.Registry
	// Tracer, when set, wraps every proxied request in a span tree
	// (server.request → ratelimit.check / admission.wait / cache.lookup
	// / coalesce.wait / store.read / response.write), tail-sampled into
	// the tracer's flight recorder and served on /tracez. Slow, errored,
	// and shed requests are kept; everything else takes the tracer's
	// near-free drop path. Nil disables tracing entirely.
	Tracer *obs.Tracer
	// Log receives structured request/shed records; nil discards them.
	Log *slog.Logger
	// Events, when set, receives cluster-journal entries for the
	// handler's lifecycle edges: drain start, drain completion, and
	// recovered handler panics. Typically the cluster router's journal
	// so serving-layer faults share the /eventz timeline; nil discards.
	Events *eventlog.Log
}

// withDefaults resolves every zero or negative knob the handler reads
// to its documented default, once, at construction.
func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 64
	}
	if c.WriteWeight <= 0 {
		c.WriteWeight = 4
	}
	c.WriteWeight = min(c.WriteWeight, c.MaxConcurrent)
	if c.MaxWait <= 0 {
		c.MaxWait = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.RateBurst <= 0 {
		c.RateBurst = max(1, int(math.Ceil(c.RatePerClient)))
	}
	return c
}

// Handler wraps an http.Handler (in this repo: storage.TileServer) in
// the full overload pipeline:
//
//	draining? -> rate limit -> admission -> timeout -> coalesce -> cache -> inner
//
// plus the meta endpoints outside the pipeline:
//
//	GET /healthz  -> 200 while the process is alive
//	GET /readyz   -> 200 while accepting traffic, 503 once draining
//	GET /statz    -> JSON StatsSnapshot
//	GET /metricz  -> JSON registry snapshot
//	GET /tracez   -> flight-recorder span trees (404s per trace when
//	                 no Tracer is configured)
//
// Every proxied request resolves to exactly one of accepted, shed, or
// errored (see Stats), and shed responses always carry Retry-After.
type Handler struct {
	inner   http.Handler
	cfg     Config
	sem     *Semaphore
	limiter *ClientLimiter
	cache   *responseCache // nil when disabled
	flight  *flightGroup
	stats   *Stats

	metrics *obs.Registry
	tracer  *obs.Tracer
	log     *slog.Logger
	events  *eventlog.Log
	metricz http.Handler
	tracez  http.Handler
	// latency is the per-request duration by route × status class,
	// observed exactly once per proxied request, so the bucket totals
	// across all series sum to Stats.Submitted at quiescence.
	latency *obs.HistogramVec2
	// admissionWait is time spent queued at the admission semaphore
	// (both admitted and shed-after-waiting requests observe it).
	admissionWait *obs.Histogram
	// shedReason partitions Stats.Shed by refusing stage.
	shedReason *obs.CounterVec

	// leaders tracks detached singleflight leader goroutines, which
	// outlive the requests that spawned them and are not part of
	// inflight; Drain waits for them so shutdown never abandons a store
	// read mid-flight.
	leaders sync.WaitGroup

	mu       sync.Mutex
	draining bool
	inflight int
	idle     chan struct{} // non-nil while a Drain() waits for quiescence
}

// routeClasses and statusClasses are the label domains of the request
// latency family — fixed here so the series count is bounded no matter
// what paths or statuses traffic produces.
var (
	routeClasses  = []string{"tile", "list", "layers"}
	statusClasses = []string{"2xx", "3xx", "4xx", "429", "5xx", "503"}
)

// NewHandler wraps inner in the overload pipeline.
func NewHandler(inner http.Handler, cfg Config) *Handler {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	h := &Handler{
		inner:         inner,
		cfg:           cfg,
		sem:           NewSemaphore(cfg.MaxConcurrent),
		flight:        newFlightGroup(),
		metrics:       reg,
		tracer:        cfg.Tracer,
		log:           obs.OrNop(cfg.Log),
		events:        cfg.Events,
		metricz:       obs.MetricsHandler(reg),
		tracez:        obs.TracezHandler(cfg.Tracer),
		stats:         newStats(reg),
		latency:       reg.HistogramVec2("resilience.http.latency_seconds", nil, routeClasses, statusClasses),
		admissionWait: reg.Histogram("resilience.admission.wait_seconds", nil),
		shedReason:    reg.CounterVec("resilience.shed.reason", []string{"draining", "admission", "rate_limit"}),
	}
	if cfg.RatePerClient > 0 {
		h.limiter = NewClientLimiter(cfg.RatePerClient, cfg.RateBurst, cfg.MaxClients, cfg.Now)
	}
	if cfg.CacheSize >= 0 {
		h.cache = newResponseCache(cfg.CacheSize)
	}
	return h
}

// Stats exposes the serving counters.
func (h *Handler) Stats() StatsSnapshot {
	snap := h.stats.Snapshot()
	h.mu.Lock()
	snap.Draining = h.draining
	h.mu.Unlock()
	return snap
}

// Metrics returns the handler's registry — what /metricz serves, and
// where callers mount additional instruments (e.g. the storage client
// of a co-located ingest worker) so one scrape covers the process.
func (h *Handler) Metrics() *obs.Registry { return h.metrics }

// StartDrain stops admitting new requests: from now on every proxied
// request is shed with 503 + Retry-After and /readyz reports 503, while
// requests already in flight run to completion. Idempotent.
func (h *Handler) StartDrain() {
	h.mu.Lock()
	first := !h.draining
	h.draining = true
	h.mu.Unlock()
	if first {
		h.event(eventlog.TypeDrainStart, "admission gate closed", "")
	}
}

// event appends one entry to the shared cluster journal; a no-op when
// no journal was configured.
func (h *Handler) event(typ, detail, traceID string) {
	if h.events != nil {
		h.events.Append(typ, "", detail, traceID)
	}
}

// Drain performs graceful shutdown of the handler: StartDrain, then
// wait until every in-flight request — and every detached singleflight
// leader still reading the store on their behalf — has completed or
// ctx expires. A nil return means zero requests were abandoned and no
// goroutine is still touching the store.
func (h *Handler) Drain(ctx context.Context) error {
	h.StartDrain()
	h.mu.Lock()
	var idle chan struct{}
	if h.inflight > 0 {
		if h.idle == nil {
			h.idle = make(chan struct{})
		}
		idle = h.idle
	}
	h.mu.Unlock()
	if idle != nil {
		select {
		case <-idle:
		case <-ctx.Done():
			return fmt.Errorf("resilience: drain deadline with %d requests in flight: %w",
				h.Stats().Inflight, ctx.Err())
		}
	}
	// Inflight is now zero and the drain gate sheds new arrivals, so no
	// further leaders can be spawned — the WaitGroup can only count down.
	leadersDone := make(chan struct{})
	go func() {
		h.leaders.Wait()
		close(leadersDone)
	}()
	select {
	case <-leadersDone:
		h.event(eventlog.TypeDrainDone, "all in-flight requests and detached reads complete", "")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("resilience: drain deadline with detached store reads still running: %w",
			ctx.Err())
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
		return
	case "/readyz":
		h.mu.Lock()
		draining := h.draining
		h.mu.Unlock()
		if draining {
			w.Header().Set("Retry-After", retryAfterValue(h.cfg.RetryAfter))
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("draining\n"))
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
		return
	case "/statz":
		obs.WriteJSON(w, h.Stats(), nil)
		return
	case "/metricz":
		h.metricz.ServeHTTP(w, r)
		return
	case "/tracez":
		h.tracez.ServeHTTP(w, r)
		return
	}

	// Resolve the request's trace before any counter or response: the
	// ID is echoed on the response header (and read back from there by
	// error writers into JSON bodies), so client, server log, and wire
	// all agree on one ID per request.
	r, trace := obs.EnsureRequestTrace(r)
	w.Header().Set(obs.TraceHeader, trace)
	// Start the request's root span. A span ID the caller stamped on the
	// wire (a client retry attempt) becomes the root's remote parent, so
	// the server-side tree nests under the exact attempt that reached
	// us. With no tracer configured all span calls below no-op.
	ctx := r.Context()
	if h.tracer != nil {
		if parent := obs.SanitizeTraceID(r.Header.Get(obs.SpanHeader)); parent != "" {
			ctx = obs.WithRemoteParent(ctx, parent)
		}
	}
	ctx, root := h.tracer.StartSpan(ctx, "server.request")
	if root != nil {
		root.SetAttr("method", r.Method)
		r = r.WithContext(ctx)
	}
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	defer func() {
		dur := time.Since(start)
		route, status := routeClass(r.URL.Path), statusClass(sw.Status())
		root.SetAttr("route", route)
		root.SetAttrInt("status", int64(sw.Status()))
		if code := sw.Status(); code == http.StatusTooManyRequests || code >= 500 {
			root.Fail("http " + status)
		}
		// The root span and the latency histogram observe the one
		// measured duration, and the bucket exemplar records the trace
		// only when tail sampling actually kept it — every exemplar on
		// /metricz resolves on /tracez.
		root.EndWith(dur)
		h.latency.With(route, status).ObserveWithExemplar(dur.Seconds(), root.SampledTraceID())
		h.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("method", r.Method), slog.String("path", r.URL.Path),
			slog.String("route", route), slog.Int("status", sw.Status()),
			slog.Duration("dur", dur))
	}()
	w = sw

	h.stats.submitted.Inc()
	h.beginInflight()
	defer h.endInflight()

	h.mu.Lock()
	draining := h.draining
	h.mu.Unlock()
	if draining {
		h.shed(w, r, http.StatusServiceUnavailable, "draining", h.cfg.RetryAfter, false)
		return
	}

	if h.limiter != nil {
		lsp := root.StartChild("ratelimit.check")
		ok, retryIn := h.limiter.Allow(clientID(r))
		lsp.End()
		if !ok {
			if retryIn < h.cfg.RetryAfter {
				retryIn = h.cfg.RetryAfter
			}
			h.shed(w, r, http.StatusTooManyRequests, "rate-limit", retryIn, true)
			return
		}
	}

	weight := int64(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		weight = h.cfg.WriteWeight
	}
	actx, acancel := context.WithTimeout(r.Context(), h.cfg.MaxWait)
	asp := root.StartChild("admission.wait")
	waitStart := time.Now()
	err := h.sem.Acquire(actx, weight)
	// One measurement feeds both views, so the histogram and the span
	// can never disagree about how long this request queued.
	wait := time.Since(waitStart)
	h.admissionWait.Observe(wait.Seconds())
	asp.EndWith(wait)
	acancel()
	if err != nil {
		h.shed(w, r, http.StatusServiceUnavailable, "admission", h.cfg.RetryAfter, false)
		return
	}
	defer h.sem.Release(weight)

	rctx, rcancel := context.WithTimeout(r.Context(), h.cfg.RequestTimeout)
	defer rcancel()
	if r.Method == http.MethodGet && isTilePath(r.URL.Path) {
		h.serveRead(w, r, rctx)
	} else {
		h.serveDirect(w, r, rctx)
	}
}

// statusWriter records the status line so the deferred latency
// observation can label by status class. A body write without an
// explicit WriteHeader means 200, per net/http.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (s *statusWriter) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

// Status returns the response status, 200 when the handler wrote a
// body without one, 0 when nothing was written at all (classified as
// "other" by statusClass).
func (s *statusWriter) Status() int {
	if s.status == 0 {
		return http.StatusOK
	}
	return s.status
}

// routeClass buckets a request path into the bounded route label:
// single-tile reads, tile listings, the layer index, or other.
func routeClass(path string) string {
	switch {
	case isTilePath(path):
		return "tile"
	case strings.HasPrefix(path, "/v1/tiles"):
		return "list"
	case strings.HasPrefix(path, "/v1/layers"):
		return "layers"
	default:
		return obs.OtherLabel
	}
}

// statusClass buckets a status code: the overload-relevant exact codes
// (429, 503) get their own series, everything else its century class.
func statusClass(code int) string {
	switch {
	case code == http.StatusTooManyRequests:
		return "429"
	case code == http.StatusServiceUnavailable:
		return "503"
	case code >= 200 && code < 300:
		return "2xx"
	case code >= 300 && code < 400:
		return "3xx"
	case code >= 400 && code < 500:
		return "4xx"
	case code >= 500 && code < 600:
		return "5xx"
	default:
		return obs.OtherLabel
	}
}

// serveRead answers a tile GET through cache and singleflight. Only
// tile paths take this route: their responses depend on nothing but
// the path (plus query, which joins the flight key), so coalescing
// cannot leak one client's response to another — the documented
// contract for wrapping arbitrary handlers. The actual store read runs
// detached from any one client's context: a coalesced read serves
// every waiter, so the leader hanging up must not poison the herd
// behind it.
func (h *Handler) serveRead(w http.ResponseWriter, r *http.Request, ctx context.Context) {
	path := r.URL.Path
	key := path
	if q := r.URL.RawQuery; q != "" {
		// Distinct queries are distinct requests; they must neither
		// coalesce with nor be cached as the bare path.
		key += "?" + q
	}
	root := obs.SpanFromContext(ctx)
	cacheable := h.cache != nil && key == path
	if cacheable {
		csp := root.StartChild("cache.lookup")
		resp, ok := h.cache.get(path)
		csp.End()
		if ok {
			h.stats.cacheHits.Add(1)
			h.stats.accepted.Add(1)
			wsp := root.StartChild("response.write")
			resp.writeTo(w)
			wsp.End()
			return
		}
		h.stats.cacheMisses.Add(1)
	}

	call, leader := h.flight.join(key)
	if leader {
		ictx, icancel := context.WithTimeout(context.Background(), h.cfg.RequestTimeout)
		req := r.Clone(ictx)
		// The detached read must not touch the origin connection's body.
		req.Body = http.NoBody
		// The store read belongs to this request's trace even though it
		// runs detached; if it outlives the root span the exporter
		// records it as unfinished rather than waiting.
		rsp := root.StartChild("store.read")
		h.leaders.Add(1)
		go func() {
			defer h.leaders.Done()
			defer icancel()
			resp, err := h.runInner(req)
			if err != nil {
				rsp.Fail(err.Error())
			}
			rsp.End()
			var put func()
			if err == nil && cacheable && resp.status == http.StatusOK {
				// The insert runs inside finish, atomically with the
				// poison check, so a PUT that completed after this read
				// can never have its invalidation undone by a stale
				// re-insert (cache.go's freshness invariant).
				put = func() { h.cache.put(path, resp) }
			}
			h.flight.finish(key, call, resp, err, put)
		}()
	} else {
		h.stats.coalesced.Add(1)
	}

	wsp := root.StartChild("coalesce.wait")
	select {
	case <-call.done:
		wsp.End()
		if call.err != nil {
			h.stats.errored.Add(1)
			writeOverloadError(w, http.StatusInternalServerError, call.err.Error(), "", 0)
			return
		}
		h.stats.accepted.Add(1)
		osp := root.StartChild("response.write")
		call.resp.writeTo(w)
		osp.End()
	case <-ctx.Done():
		wsp.Fail("request deadline exceeded")
		wsp.End()
		h.stats.errored.Add(1)
		writeOverloadError(w, http.StatusServiceUnavailable, "request deadline exceeded",
			"", h.cfg.RetryAfter)
	}
}

// serveDirect runs a request synchronously on its own connection: all
// mutations (their bodies cannot be detached) and any GET that is not
// a single-tile read (list endpoints and unknown inner routes, whose
// responses may vary by header and so must never be shared across
// clients). Writes poison in-flight reads of the touched path and
// invalidate its cache entry.
func (h *Handler) serveDirect(w http.ResponseWriter, r *http.Request, ctx context.Context) {
	root := obs.SpanFromContext(ctx)
	xsp := root.StartChild("store.exec")
	resp, err := h.runInner(r.WithContext(ctx))
	if err != nil {
		xsp.Fail(err.Error())
	}
	xsp.End()
	if r.Method == http.MethodPut || r.Method == http.MethodDelete {
		// Order matters: poison first, then invalidate. A leader that
		// read pre-write bytes either sees the poison (its insert is
		// skipped) or already inserted (the invalidation removes it).
		h.flight.poisonPath(r.URL.Path)
		if h.cache != nil {
			h.cache.invalidate(r.URL.Path)
		}
	}
	if err != nil {
		h.stats.errored.Add(1)
		writeOverloadError(w, http.StatusInternalServerError, err.Error(), "", 0)
		return
	}
	if ctx.Err() != nil {
		// The deadline expired while the store worked; the mutation may
		// have landed, but this client cannot be told so in time.
		h.stats.errored.Add(1)
		writeOverloadError(w, http.StatusServiceUnavailable, "request deadline exceeded",
			"", h.cfg.RetryAfter)
		return
	}
	h.stats.accepted.Add(1)
	wsp := root.StartChild("response.write")
	resp.writeTo(w)
	wsp.End()
}

// runInner executes the wrapped handler into a buffered capture,
// converting a panic into an error so one poisoned request cannot take
// the serving process down.
func (h *Handler) runInner(r *http.Request) (resp *capturedResponse, err error) {
	h.stats.innerReqs.Add(1)
	defer func() {
		if p := recover(); p != nil {
			resp, err = nil, fmt.Errorf("handler panic: %v", p)
			h.event(eventlog.TypeHandlerPanic, fmt.Sprintf("%s %s: %v", r.Method, r.URL.Path, p),
				obs.SpanFromContext(r.Context()).TraceID())
		}
	}()
	c := newCapture()
	h.inner.ServeHTTP(c, r)
	return c, nil
}

// shed refuses a request with the policy's status, a Retry-After, and
// a JSON error body. reason is the wire spelling (ShedHeader value);
// the metric label replaces '-' to fit the label charset.
func (h *Handler) shed(w http.ResponseWriter, r *http.Request, status int, reason string, retryIn time.Duration, rateLimited bool) {
	// A shed request is exactly the kind of trace an operator wants
	// post-hoc: mark it failed so tail sampling keeps it.
	if sp := obs.SpanFromContext(r.Context()); sp != nil {
		sp.Fail("shed: " + reason)
	}
	h.stats.shed.Inc()
	if rateLimited {
		h.stats.rateLimited.Inc()
	}
	h.shedReason.With(strings.ReplaceAll(reason, "-", "_")).Inc()
	h.log.LogAttrs(r.Context(), slog.LevelWarn, "request shed",
		slog.String("reason", reason), slog.Int("status", status),
		slog.String("client", clientID(r)))
	writeOverloadError(w, status, "overloaded: "+reason, reason, retryIn)
}

// writeOverloadError emits a resilience-layer JSON error; retryIn > 0
// adds Retry-After, reason != "" adds ShedHeader.
func writeOverloadError(w http.ResponseWriter, status int, msg, reason string, retryIn time.Duration) {
	if reason != "" {
		w.Header().Set(ShedHeader, reason)
	}
	if retryIn > 0 {
		w.Header().Set("Retry-After", retryAfterValue(retryIn))
	}
	obs.WriteJSONError(w, status, msg)
}

// retryAfterValue renders a duration as whole seconds, rounded up so
// the client never retries early (the header has one-second
// granularity).
func retryAfterValue(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// clientID identifies the requester: the explicit header when set,
// else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get(ClientIDHeader); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// isTilePath reports whether path addresses a single tile
// (/v1/tiles/{layer}/{tx}/{ty}) — the only responses worth caching:
// they are immutable until the exact same path is PUT or DELETEd.
func isTilePath(path string) bool {
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	return len(parts) == 5 && parts[0] == "v1" && parts[1] == "tiles"
}

// beginInflight/endInflight track requests inside the handler for the
// drain barrier and the Inflight gauge.
func (h *Handler) beginInflight() {
	h.mu.Lock()
	h.inflight++
	h.mu.Unlock()
	h.stats.inflight.Add(1)
}

func (h *Handler) endInflight() {
	h.stats.inflight.Add(-1)
	h.mu.Lock()
	h.inflight--
	if h.inflight == 0 && h.idle != nil {
		close(h.idle)
		h.idle = nil
	}
	h.mu.Unlock()
}
