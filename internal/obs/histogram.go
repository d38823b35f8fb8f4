package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultLatencyBounds are the bucket upper bounds (seconds) used when
// a histogram is registered with nil bounds: 100µs to 10s, roughly
// exponential — wide enough for a cache hit and a retried cross-country
// fetch to land in distinct buckets.
var DefaultLatencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram of non-negative float64
// observations (latencies in seconds, by convention). Observe is
// lock-free and allocation-free; buckets are cumulative only in
// snapshots. Values are clamped rather than dropped so the count
// invariant (sum of bucket counts == observation count) holds exactly:
// NaN and negative values clamp to zero (first bucket), values beyond
// the last bound land in the overflow bucket.
type Histogram struct {
	bounds []float64       // ascending upper bounds; immutable
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	max    atomic.Uint64 // float64 bits, CAS-updated
	// exemplars holds, per bucket (last is overflow), the most recent
	// sampled trace that landed there — the link from a latency bucket
	// on /metricz to its span tree on /tracez. Written only by
	// ObserveWithExemplar with a non-empty trace ID, i.e. only on the
	// rare sampled path; plain Observe never touches it.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one concrete observation to the sampled trace that
// produced it.
type Exemplar struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
	// AtNanos is the observation's wall-clock time in unix
	// nanoseconds. Consumers choosing among buckets prefer fresher
	// exemplars: trace rings evict old entries, so a stale exemplar is
	// a dangling pointer.
	AtNanos int64 `json:"at_nanos,omitempty"`
}

// NewHistogram creates a standalone histogram (not registered
// anywhere) with the given ascending bucket upper bounds; nil means
// DefaultLatencyBounds. Use Registry.Histogram for named metrics.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	for _, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bounds must be finite")
		}
	}
	cp := make([]float64, len(bounds))
	copy(cp, bounds)
	return &Histogram{
		bounds:    cp,
		counts:    make([]atomic.Uint64, len(cp)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(cp)+1),
	}
}

// Observe records one value. NaN and negative values clamp to zero;
// +Inf clamps to the top bound for the sum/max and is counted in the
// overflow bucket, so the sum always stays finite and JSON-exportable.
func (h *Histogram) Observe(v float64) {
	h.ObserveWithExemplar(v, "")
}

// ObserveWithExemplar records one value like Observe and, when traceID
// is non-empty, remembers (traceID, v) as the owning bucket's exemplar.
// Callers pass the trace ID only for tail-sampled requests (see
// Span.SampledTraceID), so the empty-ID hot path stays lock-free and
// allocation-free and every published exemplar resolves on /tracez.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if v != v || v < 0 { // NaN or negative
		v = 0
	}
	top := h.bounds[len(h.bounds)-1]
	idx := len(h.bounds) // overflow unless a bound catches it
	if v <= top {
		// Linear scan: bucket counts are small (default 16) and this
		// avoids any closure or interface allocation on the hot path.
		for i, b := range h.bounds {
			if v <= b {
				idx = i
				break
			}
		}
	} else if math.IsInf(v, 1) {
		v = top
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
	maxFloat(&h.max, v)
	if traceID != "" {
		h.exemplars[idx].Store(&Exemplar{TraceID: traceID, Value: v, AtNanos: time.Now().UnixNano()})
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count reads the total observation count.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// maxFloat atomically raises a float64-bits cell to at least v.
func maxFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// BucketCount is one finite bucket of a snapshot.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper bound, seconds.
	UpperBound float64 `json:"le"`
	// Count is the number of observations in (previous bound, le].
	Count uint64 `json:"count"`
	// Exemplar, when present, is the most recent tail-sampled
	// observation in this bucket; its trace ID resolves on /tracez.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// HistogramSnapshot is a point-in-time read of a histogram, with
// pre-computed quantiles. Overflow holds observations above the last
// bound (kept out of Buckets so the snapshot stays JSON-encodable —
// +Inf is not valid JSON).
type HistogramSnapshot struct {
	Count    uint64        `json:"count"`
	Sum      float64       `json:"sum"`
	Max      float64       `json:"max"`
	Buckets  []BucketCount `json:"buckets"`
	Overflow uint64        `json:"overflow"`
	// OverflowExemplar is the exemplar of the overflow bucket, if any.
	OverflowExemplar *Exemplar `json:"overflow_exemplar,omitempty"`
	P50              float64   `json:"p50"`
	P95              float64   `json:"p95"`
	P99              float64   `json:"p99"`
}

// Snapshot reads the histogram. Individual cells are atomic; the
// snapshot as a whole is made coherent by construction: Count is read
// first and the bucket cells are clamped down to it, so
// BucketTotal() == Count in every snapshot, even mid-Observe, and the
// Count of successive snapshots is monotonically non-decreasing.
func (h *Histogram) Snapshot() HistogramSnapshot {
	cells := make([]uint64, len(h.counts))
	count, max := h.ReadCells(cells)
	s := HistogramSnapshot{
		Count:   count,
		Sum:     math.Float64frombits(h.sum.Load()),
		Max:     max,
		Buckets: make([]BucketCount, len(h.bounds)),
	}
	for i, b := range h.bounds {
		s.Buckets[i] = BucketCount{
			UpperBound: b,
			Count:      cells[i],
			Exemplar:   h.exemplars[i].Load(),
		}
	}
	s.Overflow = cells[len(h.bounds)]
	s.OverflowExemplar = h.exemplars[len(h.bounds)].Load()
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// NumCells is the bucket-cell count including the overflow bucket —
// the scratch length ReadCells needs.
func (h *Histogram) NumCells() int { return len(h.counts) }

// ReadCells reads the per-bucket cells into scratch (len(scratch) must
// be >= NumCells()) and returns the observation count and max. It
// allocates nothing, which is what lets a sampler poll every histogram
// on a fixed interval for free.
//
// Coherence: Observe bumps a bucket cell before the total count, so a
// raw concurrent read can see sum(cells) > count by the number of
// in-flight observations. ReadCells reads count first, then clamps the
// excess off the cells from the overflow bucket downward — the
// in-flight observations are simply deferred to the next read — so
// sum(scratch[:NumCells()]) == count holds exactly, always.
func (h *Histogram) ReadCells(scratch []uint64) (count uint64, max float64) {
	count = h.count.Load()
	var total uint64
	for i := range h.counts {
		v := h.counts[i].Load()
		scratch[i] = v
		total += v
	}
	for i := len(h.counts) - 1; i >= 0 && total > count; i-- {
		over := total - count
		if scratch[i] < over {
			over = scratch[i]
		}
		scratch[i] -= over
		total -= over
	}
	return count, math.Float64frombits(h.max.Load())
}

// CellQuantile estimates the q-quantile from a ReadCells scratch read,
// without allocating. It is HistogramSnapshot.Quantile over the cells.
func (h *Histogram) CellQuantile(scratch []uint64, count uint64, max float64, q float64) float64 {
	return quantile(q, count, max, len(h.bounds), func(i int) (float64, uint64) {
		return h.bounds[i], scratch[i]
	})
}

// BucketTotal sums the per-bucket counts (including overflow). Equal
// to Count in every snapshot — Snapshot clamps in-flight observations
// off the cells — so scrape consumers may divide by either.
func (s HistogramSnapshot) BucketTotal() uint64 {
	var t uint64
	for _, b := range s.Buckets {
		t += b.Count
	}
	return t + s.Overflow
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the owning bucket, Prometheus-style, never above the observed
// Max. Zero observations yield 0; quantiles landing in the overflow
// bucket return Max.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return quantile(q, s.BucketTotal(), s.Max, len(s.Buckets), func(i int) (float64, uint64) {
		return s.Buckets[i].UpperBound, s.Buckets[i].Count
	})
}

// quantile is the one estimator behind Quantile and CellQuantile.
// bucket(i) yields the upper bound and count of finite bucket i of n;
// total includes the overflow bucket. Interpolation assumes values
// spread evenly across a bucket, so on its own it can report more
// than was ever observed (one 0.3 s observation in (0.25, 0.5] would
// give p99 = 0.4975); the result is therefore clamped to max.
func quantile(q float64, total uint64, max float64, n int, bucket func(i int) (upper float64, count uint64)) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := uint64(0)
	lower := 0.0
	for i := 0; i < n; i++ {
		upper, c := bucket(i)
		if c > 0 && float64(cum+c) >= rank {
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return math.Min(lower+frac*(upper-lower), max)
		}
		cum += c
		lower = upper
	}
	return max
}

// Summary renders the snapshot as one line of operator-facing latency
// figures: count, p50/p95/p99, and max, as durations.
func (s HistogramSnapshot) Summary() string {
	return fmt.Sprintf("n=%d p50=%s p95=%s p99=%s max=%s",
		s.Count, fmtSeconds(s.P50), fmtSeconds(s.P95), fmtSeconds(s.P99), fmtSeconds(s.Max))
}

// fmtSeconds renders a seconds value as a rounded time.Duration.
func fmtSeconds(v float64) string {
	d := time.Duration(v * float64(time.Second))
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
