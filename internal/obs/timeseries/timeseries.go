// Package timeseries turns the point-in-time obs registry into
// history: a Store of bounded ring-buffer series sharing one clock,
// and a Sampler that snapshots every registry counter (as a rate),
// gauge, and histogram quantile set into that store on a fixed
// interval with zero allocations on the sampling hot path.
//
// The split matters: the Sampler is the in-process path (it holds live
// cell pointers into a Registry), while the Store is also fed directly
// by the cluster federation layer, which has only scraped /metricz
// snapshots of remote nodes to work from. Both producers land in the
// same query surface — Window, Last, Snapshot — which is what the SLO
// engine and /fleetz read.
package timeseries

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hdmaps/internal/obs"
)

// Kind classifies what a series' values mean.
type Kind uint8

const (
	// KindRate is a counter's per-second increase over the sampling
	// interval (counter resets clamp to the post-reset value, never
	// negative).
	KindRate Kind = iota
	// KindGauge is an instantaneous value copied as-is.
	KindGauge
	// KindQuantile is a histogram quantile estimate in seconds.
	KindQuantile
)

// String renders the kind for JSON export.
func (k Kind) String() string {
	switch k {
	case KindRate:
		return "rate"
	case KindGauge:
		return "gauge"
	case KindQuantile:
		return "quantile"
	}
	return "unknown"
}

// Store holds named bounded series advancing on a shared clock: every
// Tick opens one new slot across all series, Set fills the open slot,
// and slots a producer skipped stay invalid (NaN internally, absent in
// snapshots). Capacity bounds memory by construction — the ring
// overwrites the oldest slot once full.
type Store struct {
	mu     sync.RWMutex
	cap    int
	n      uint64  // ticks taken; tick t (1-based) lives at slot (t-1)%cap
	times  []int64 // unix-milli ring, parallel to every series' values
	byName map[string]*Series
	order  []*Series // registration order, for cheap whole-store walks
}

// Series is one named ring of float64 samples inside a Store. Create
// via Store.Ensure; write via Set between the owning store's Ticks.
type Series struct {
	st    *Store
	name  string
	kind  Kind
	vals  []float64
	first uint64 // tick the series appeared at; earlier slots are void
}

// NewStore creates a store holding up to capacity points per series
// (minimum 2 — a rate needs a predecessor).
func NewStore(capacity int) *Store {
	if capacity < 2 {
		capacity = 2
	}
	return &Store{
		cap:    capacity,
		times:  make([]int64, capacity),
		byName: make(map[string]*Series),
	}
}

// Capacity is the per-series point bound.
func (st *Store) Capacity() int { return st.cap }

// Ensure returns the named series, creating it (registered against the
// current tick) on first use. The kind of an existing series is not
// changed. The name must satisfy the obs metric grammar up to a label
// or quantile suffix; callers own validation (the sampler derives
// names from already-validated registry names).
func (st *Store) Ensure(name string, kind Kind) *Series {
	st.mu.Lock()
	defer st.mu.Unlock()
	if sr, ok := st.byName[name]; ok {
		return sr
	}
	// A series born mid-round (federation Ensures after Tick) may still
	// Set the open slot, so the current tick counts as its first; the
	// fresh all-NaN buffer already voids everything earlier.
	first := st.n
	if first == 0 {
		first = 1
	}
	sr := &Series{st: st, name: name, kind: kind, first: first}
	sr.vals = make([]float64, st.cap)
	for i := range sr.vals {
		sr.vals[i] = math.NaN()
	}
	st.byName[name] = sr
	st.order = append(st.order, sr)
	return sr
}

// Tick opens the next slot: the shared clock advances and every
// series' new slot is invalidated until its producer Sets it. One Tick
// per sampling round, then Set each series.
func (st *Store) Tick(now time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.n++
	idx := int((st.n - 1) % uint64(st.cap))
	st.times[idx] = now.UnixMilli()
	for _, sr := range st.order {
		sr.vals[idx] = math.NaN()
	}
}

// Ticks is the number of sampling rounds taken so far.
func (st *Store) Ticks() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.n
}

// LastTick reports when the store last ticked; ok is false before the
// first tick. Federation uses this as the staleness clock for a node.
func (st *Store) LastTick() (t time.Time, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.n == 0 {
		return time.Time{}, false
	}
	return time.UnixMilli(st.times[int((st.n-1)%uint64(st.cap))]), true
}

// Set writes v into the series' slot for the current tick. Calling Set
// twice in one tick overwrites; calling it before the first Tick is a
// no-op.
func (sr *Series) Set(v float64) {
	st := sr.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.n == 0 {
		return
	}
	sr.vals[int((st.n-1)%uint64(st.cap))] = v
}

// Add accumulates v into the current tick's slot, treating an unset
// (invalid) slot as zero. Federation uses this to sum rates and gauges
// from several overflow nodes into one shared "other" series.
func (sr *Series) Add(v float64) {
	st := sr.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.n == 0 {
		return
	}
	idx := int((st.n - 1) % uint64(st.cap))
	if math.IsNaN(sr.vals[idx]) {
		sr.vals[idx] = v
		return
	}
	sr.vals[idx] += v
}

// Max raises the current tick's slot to v if the slot is unset or
// lower. Federation uses this for quantile series, where summing
// across nodes would be meaningless — the fleet's worst tail wins.
func (sr *Series) Max(v float64) {
	st := sr.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.n == 0 {
		return
	}
	idx := int((st.n - 1) % uint64(st.cap))
	if math.IsNaN(sr.vals[idx]) || sr.vals[idx] < v {
		sr.vals[idx] = v
	}
}

// Name returns the series name.
func (sr *Series) Name() string { return sr.name }

// Window calls fn for every valid sample of the named series whose
// timestamp falls within the trailing window w (relative to the
// store's latest tick), newest first, and returns the sample count.
// Unknown series yield 0. fn runs under the store's read lock and must
// not call back into the store.
func (st *Store) Window(name string, w time.Duration, fn func(v float64)) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	sr, ok := st.byName[name]
	if !ok || st.n == 0 {
		return 0
	}
	latest := st.times[int((st.n-1)%uint64(st.cap))]
	cutoff := latest - w.Milliseconds()
	count := 0
	span := uint64(st.cap)
	if st.n < span {
		span = st.n
	}
	for back := uint64(0); back < span; back++ {
		tick := st.n - back
		if tick < sr.first {
			break
		}
		idx := int((tick - 1) % uint64(st.cap))
		if st.times[idx] < cutoff {
			break
		}
		v := sr.vals[idx]
		if math.IsNaN(v) {
			continue
		}
		count++
		if fn != nil {
			fn(v)
		}
	}
	return count
}

// Last returns the most recent valid sample of the named series.
func (st *Store) Last(name string) (v float64, ok bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	sr, found := st.byName[name]
	if !found || st.n == 0 {
		return 0, false
	}
	span := uint64(st.cap)
	if st.n < span {
		span = st.n
	}
	for back := uint64(0); back < span; back++ {
		tick := st.n - back
		if tick < sr.first {
			break
		}
		x := sr.vals[int((tick-1)%uint64(st.cap))]
		if !math.IsNaN(x) {
			return x, true
		}
	}
	return 0, false
}

// Point is one sample in a series snapshot.
type Point struct {
	// T is the sample's unix-milli timestamp.
	T int64 `json:"t"`
	// V is the sample value (rate/sec, gauge value, or seconds).
	V float64 `json:"v"`
}

// SeriesSnapshot is one series' exportable history, oldest first.
type SeriesSnapshot struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`
}

// Snapshot exports every series, sorted by name, with at most
// maxPoints trailing points each (0 means the full ring). Invalid
// slots are skipped, so the JSON never carries NaN.
func (st *Store) Snapshot(maxPoints int) []SeriesSnapshot {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]SeriesSnapshot, 0, len(st.order))
	span := uint64(st.cap)
	if st.n < span {
		span = st.n
	}
	if maxPoints > 0 && uint64(maxPoints) < span {
		span = uint64(maxPoints)
	}
	for _, sr := range st.order {
		ss := SeriesSnapshot{Name: sr.name, Kind: sr.kind.String()}
		for back := span; back > 0; back-- {
			tick := st.n - back + 1
			if tick < sr.first {
				continue
			}
			idx := int((tick - 1) % uint64(st.cap))
			v := sr.vals[idx]
			if math.IsNaN(v) {
				continue
			}
			ss.Points = append(ss.Points, Point{T: st.times[idx], V: v})
		}
		out = append(out, ss)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ---- sampler ---------------------------------------------------------

// Config configures a Sampler.
type Config struct {
	// Registry is the metric source (default obs.Default()).
	Registry *obs.Registry
	// Interval is the sampling cadence (default 5s).
	Interval time.Duration
	// Capacity bounds each series' ring (default 360 points — half an
	// hour of history at the default interval).
	Capacity int
}

// withDefaults resolves every zero knob to its documented default,
// once, at construction.
func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Capacity <= 0 {
		c.Capacity = 360
	}
	return c
}

// quantile suffixes every histogram contributes, matching the p50/p95/
// p99 set /metricz already pre-computes per snapshot.
var quantiles = []struct {
	suffix string
	q      float64
}{
	{".p50", 0.50},
	{".p95", 0.95},
	{".p99", 0.99},
}

type counterEntry struct {
	c    *obs.Counter
	last uint64
	sr   *Series
}

type gaugeEntry struct {
	g  *obs.Gauge
	sr *Series
}

type histEntry struct {
	h         *obs.Histogram
	scratch   []uint64
	lastCount uint64
	rate      *Series
	qs        [3]*Series // p50, p95, p99
}

// Sampler drives a Store from a Registry: every Interval it reads each
// counter (emitting a per-second rate), gauge, and histogram (emitting
// an observation rate plus the p50/p95/p99 quantile set) into the
// store. The steady-state SampleNow path performs zero allocations —
// cell pointers, series handles, and histogram scratch are resolved
// once per registry generation and reused — so sampling is cheap
// enough to leave on in a serving loop. Pinned by TestSamplerAllocBudget.
type Sampler struct {
	reg      *obs.Registry
	interval time.Duration
	store    *Store

	// resync state: gen is the registry generation the entry slices
	// were resolved at; the maps carry rate baselines across resyncs so
	// a new metric's arrival never spikes existing series.
	gen      uint64
	synced   bool
	counters []*counterEntry
	gauges   []*gaugeEntry
	hists    []*histEntry
	byName   map[string]any

	lastSample time.Time

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewSampler builds a stopped sampler; call Start for the background
// loop or SampleNow for manual, deterministic ticks (tests, soaks).
func NewSampler(cfg Config) *Sampler {
	cfg = cfg.withDefaults()
	return &Sampler{
		reg:      cfg.Registry,
		interval: cfg.Interval,
		store:    NewStore(cfg.Capacity),
		byName:   make(map[string]any),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Store exposes the sampler's backing store for queries and export.
func (s *Sampler) Store() *Store { return s.store }

// Interval is the configured sampling cadence.
func (s *Sampler) Interval() time.Duration { return s.interval }

// Start launches the background sampling loop. Idempotent.
func (s *Sampler) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				s.SampleNow(now)
			}
		}
	}()
}

// Close stops the background loop and waits for it. Idempotent; safe
// without Start.
func (s *Sampler) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.started.Load() {
		<-s.done
	}
}

// resync re-resolves registry cells into entry slices. This is the
// only allocating path, taken once per registry generation change —
// i.e. only when a metric is registered, which instrumented code does
// once at construction.
func (s *Sampler) resync() {
	s.counters = s.counters[:0]
	s.gauges = s.gauges[:0]
	s.hists = s.hists[:0]
	s.reg.Each(
		func(name string, c *obs.Counter) {
			e, ok := s.byName[name].(*counterEntry)
			if !ok {
				e = &counterEntry{c: c, last: c.Value(), sr: s.store.Ensure(name, KindRate)}
				s.byName[name] = e
			}
			e.c = c
			s.counters = append(s.counters, e)
		},
		func(name string, g *obs.Gauge) {
			e, ok := s.byName[name].(*gaugeEntry)
			if !ok {
				e = &gaugeEntry{g: g, sr: s.store.Ensure(name, KindGauge)}
				s.byName[name] = e
			}
			e.g = g
			s.gauges = append(s.gauges, e)
		},
		func(name string, h *obs.Histogram) {
			e, ok := s.byName[name].(*histEntry)
			if !ok {
				e = &histEntry{
					h:         h,
					scratch:   make([]uint64, h.NumCells()),
					lastCount: h.Count(),
					rate:      s.store.Ensure(name+".rate", KindRate),
				}
				for i, q := range quantiles {
					e.qs[i] = s.store.Ensure(name+q.suffix, KindQuantile)
				}
				s.byName[name] = e
			}
			e.h = h
			if len(e.scratch) < h.NumCells() {
				e.scratch = make([]uint64, h.NumCells())
			}
			s.hists = append(s.hists, e)
		},
	)
}

// SampleNow takes one sampling round stamped at now. Zero allocations
// once the registry generation is stable. Not safe for concurrent use
// with itself (the background loop is the only expected caller in
// production; tests call it single-threaded).
func (s *Sampler) SampleNow(now time.Time) {
	// gen is read before resync: a registration landing mid-resync
	// bumps the registry past the stored value, forcing another resync
	// next round rather than silently missing the new metric.
	if gen := s.reg.Generation(); !s.synced || gen != s.gen {
		s.gen = gen
		s.resync()
		s.synced = true
	}
	dt := s.interval.Seconds()
	if !s.lastSample.IsZero() {
		if d := now.Sub(s.lastSample).Seconds(); d > 0 {
			dt = d
		}
	}
	s.lastSample = now

	s.store.Tick(now)
	for _, e := range s.counters {
		v := e.c.Value()
		d := v - e.last
		if v < e.last {
			// Counter reset (the cell was swapped or the process view
			// restarted): count the post-reset value, never negative.
			d = v
		}
		e.last = v
		e.sr.Set(float64(d) / dt)
	}
	for _, e := range s.gauges {
		e.sr.Set(float64(e.g.Value()))
	}
	for _, e := range s.hists {
		count, max := e.h.ReadCells(e.scratch)
		d := count - e.lastCount
		if count < e.lastCount {
			d = count
		}
		e.lastCount = count
		e.rate.Set(float64(d) / dt)
		for i, q := range quantiles {
			e.qs[i].Set(e.h.CellQuantile(e.scratch, count, max, q.q))
		}
	}
}
