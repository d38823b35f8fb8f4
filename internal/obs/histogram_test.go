package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestHistogramZeroObservations(t *testing.T) {
	h := NewHistogram(nil)
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Errorf("empty histogram: count=%d sum=%v max=%v", s.Count, s.Sum, s.Max)
	}
	if s.P50 != 0 || s.P95 != 0 || s.P99 != 0 {
		t.Errorf("empty histogram quantiles: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
	if s.BucketTotal() != 0 {
		t.Errorf("empty histogram bucket total = %d", s.BucketTotal())
	}
	if got := s.Summary(); got == "" {
		t.Error("empty histogram summary is empty")
	}
}

func TestHistogramOutOfRangeClampsToOverflow(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(100)         // beyond top bound
	h.Observe(math.Inf(1)) // +Inf
	h.Observe(4.0000001)   // just past the top bound
	s := h.Snapshot()
	if s.Overflow != 3 {
		t.Fatalf("overflow = %d, want 3", s.Overflow)
	}
	if s.Count != 3 || s.BucketTotal() != 3 {
		t.Errorf("count = %d, bucket total = %d, want 3", s.Count, s.BucketTotal())
	}
	if math.IsInf(s.Sum, 0) || math.IsInf(s.Max, 0) {
		t.Errorf("+Inf leaked into sum=%v or max=%v", s.Sum, s.Max)
	}
	if s.Max != 100 {
		t.Errorf("max = %v, want 100", s.Max)
	}
}

func TestHistogramNegativeAndNaNClampToZero(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(-5)
	h.Observe(math.Inf(-1))
	h.Observe(math.NaN())
	s := h.Snapshot()
	if s.Buckets[0].Count != 3 {
		t.Fatalf("first bucket = %d, want 3 (clamped)", s.Buckets[0].Count)
	}
	if s.Sum != 0 {
		t.Errorf("sum = %v, want 0 (all observations clamped to zero)", s.Sum)
	}
	if s.Count != 3 {
		t.Errorf("count = %d, want 3", s.Count)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i%10) + 0.5) // uniform over (0,10)
	}
	s := h.Snapshot()
	if s.P50 < 3 || s.P50 > 7 {
		t.Errorf("p50 = %v, want near 5 for a uniform distribution", s.P50)
	}
	if s.P99 < s.P95 || s.P95 < s.P50 {
		t.Errorf("quantiles not ordered: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
	if s.Max != 9.5 {
		t.Errorf("max = %v, want 9.5", s.Max)
	}
}

// TestHistogramConcurrentObserve hammers Observe from many goroutines
// (run under -race in CI) and checks the count invariant holds exactly
// at quiescence: total == sum of bucket counts == observations issued.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := uint64(workers * per); s.Count != want || s.BucketTotal() != want {
		t.Errorf("count=%d bucketTotal=%d, want %d", s.Count, s.BucketTotal(), want)
	}
}

// TestHistogramSnapshotMonotonicity takes snapshots concurrently with
// writers and asserts the reported Count never decreases between
// successive reads, and never exceeds the bucket total of a later
// snapshot — the monotonicity a scraper relies on to compute rates.
func TestHistogramSnapshotMonotonicity(t *testing.T) {
	h := NewHistogram(nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(0.001)
				}
			}
		}()
	}
	var last uint64
	for i := 0; i < 5000; i++ {
		s := h.Snapshot()
		if s.Count < last {
			t.Fatalf("snapshot %d: count went backwards: %d -> %d", i, last, s.Count)
		}
		// Buckets are bumped before the total, and Snapshot clamps the
		// in-flight excess off the cells — so the two totals agree
		// exactly in every snapshot, not just at quiescence.
		if s.BucketTotal() != s.Count {
			t.Fatalf("snapshot %d: bucket total %d != count %d", i, s.BucketTotal(), s.Count)
		}
		last = s.Count
	}
	close(stop)
	wg.Wait()
}

// TestHistogramConcurrentScrapeCoherence is the regression test for the
// scrape-vs-sample race: an Observe landing between the bucket-cell
// read and the count read used to let one scrape report
// sum(buckets) != count. Snapshots taken while writers hammer the
// histogram must agree internally, every time.
func TestHistogramConcurrentScrapeCoherence(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		started.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := []float64{0.0005, 0.005, 0.05, 0.5} // one per bucket incl. overflow
			h.Observe(vals[w%len(vals)])
			started.Done() // scrapes race at least these 8 observations
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(vals[(w+i)%len(vals)])
				}
			}
		}(w)
	}
	started.Wait()
	scratch := make([]uint64, h.NumCells())
	for i := 0; i < 20000; i++ {
		s := h.Snapshot()
		if got := s.BucketTotal(); got != s.Count {
			t.Fatalf("scrape %d: sum(buckets)=%d != count=%d", i, got, s.Count)
		}
		count, _ := h.ReadCells(scratch)
		var total uint64
		for _, c := range scratch {
			total += c
		}
		if total != count {
			t.Fatalf("ReadCells %d: sum(cells)=%d != count=%d", i, total, count)
		}
	}
	close(stop)
	wg.Wait()
	// At quiescence the clamp must not have lost anything: a final read
	// sees every observation in both totals.
	s := h.Snapshot()
	if s.Count == 0 || s.BucketTotal() != s.Count {
		t.Fatalf("quiescent: bucket total %d, count %d", s.BucketTotal(), s.Count)
	}
}

// TestHistogramReadCellsQuantile pins CellQuantile (the sampler's
// alloc-free read) to the Snapshot quantile math on the same data.
func TestHistogramReadCellsQuantile(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i) / 1000) // 0..1s spread across buckets
	}
	s := h.Snapshot()
	scratch := make([]uint64, h.NumCells())
	count, max := h.ReadCells(scratch)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := s.Quantile(q)
		got := h.CellQuantile(scratch, count, max, q)
		if got != want {
			t.Errorf("q=%v: CellQuantile=%v, Snapshot.Quantile=%v", q, got, want)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		c, m := h.ReadCells(scratch)
		if h.CellQuantile(scratch, c, m, 0.99) < 0 {
			t.Fatal("negative quantile")
		}
	}); n != 0 {
		t.Errorf("ReadCells+CellQuantile allocates %v/op, want 0", n)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"descending": {2, 1},
		"nan":        {1, math.NaN()},
		"inf":        {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds: no panic", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// TestHistogramBucketBoundaryClamping pins the inclusive-upper-bound
// rule: an observation landing exactly on a bucket's upper bound is
// counted in that bucket (v <= le), never the next one — so scrape
// diffs are deterministic for boundary-valued workloads (timeouts,
// quantized sleeps) and never split across buckets between runs.
func TestHistogramBucketBoundaryClamping(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1, 1}
	cases := []struct {
		name   string
		value  float64
		bucket int // index into bounds; len(bounds) means overflow
	}{
		{"exactly first bound", 0.001, 0},
		{"just under first bound", 0.0009999, 0},
		{"just over first bound", 0.0010001, 1},
		{"exactly middle bound", 0.01, 1},
		{"exactly penultimate bound", 0.1, 2},
		{"exactly top bound", 1, 3},
		{"just over top bound", 1.0000001, 4},
		{"zero", 0, 0},
		{"negative clamps to first", -5, 0},
		{"NaN clamps to first", math.NaN(), 0},
		{"+Inf counts as overflow", math.Inf(1), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(bounds)
			h.Observe(tc.value)
			s := h.Snapshot()
			for i, b := range s.Buckets {
				want := uint64(0)
				if i == tc.bucket {
					want = 1
				}
				if b.Count != want {
					t.Fatalf("bucket %d (le=%g) count = %d, want %d", i, b.UpperBound, b.Count, want)
				}
			}
			wantOv := uint64(0)
			if tc.bucket == len(bounds) {
				wantOv = 1
			}
			if s.Overflow != wantOv {
				t.Fatalf("overflow = %d, want %d", s.Overflow, wantOv)
			}
		})
	}
}

// TestHistogramQuantileExtremes is the table-driven regression for
// interpolated p50/p95/p99 at distribution extremes: everything in one
// bucket, everything on one boundary, everything in overflow, and a
// two-point bimodal split. Expected values follow the published rule —
// linear interpolation from the bucket's lower bound, clamped to the
// observed Max; overflow returns Max.
func TestHistogramQuantileExtremes(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	interp := func(lower, upper, rank, cumBefore, inBucket float64) float64 {
		return lower + (rank-cumBefore)/inBucket*(upper-lower)
	}
	cases := []struct {
		name          string
		values        []float64
		p50, p95, p99 float64
	}{
		{
			// 100 observations exactly on the first upper bound: all in
			// bucket 0, quantiles interpolate inside [0, 0.1].
			name:   "all on first bound",
			values: repeat(0.1, 100),
			p50:    interp(0, 0.1, 50, 0, 100),
			p95:    interp(0, 0.1, 95, 0, 100),
			p99:    interp(0, 0.1, 99, 0, 100),
		},
		{
			// 100 observations exactly on the top bound: all in the last
			// finite bucket, interpolating inside [1, 10].
			name:   "all on top bound",
			values: repeat(10, 100),
			p50:    interp(1, 10, 50, 0, 100),
			p95:    interp(1, 10, 95, 0, 100),
			p99:    interp(1, 10, 99, 0, 100),
		},
		{
			// Everything beyond the top bound: quantiles land in the
			// overflow bucket and return the clamped Max.
			name:   "all overflow",
			values: repeat(50, 10),
			p50:    50, p95: 50, p99: 50,
		},
		{
			// Single observation: every quantile interpolates within its
			// owning bucket (rank q*1 in a 1-count bucket); p95 and p99
			// would pass the observed 0.05, so they clamp to it.
			name:   "single observation",
			values: []float64{0.05},
			p50:    interp(0, 0.1, 0.5, 0, 1),
			p95:    math.Min(interp(0, 0.1, 0.95, 0, 1), 0.05),
			p99:    math.Min(interp(0, 0.1, 0.99, 0, 1), 0.05),
		},
		{
			// Bimodal 90/10 split: p50 stays in the fast bucket, p95 and
			// p99 interpolate inside the slow one, clamped to the max 5.
			name:   "bimodal",
			values: append(repeat(0.05, 90), repeat(5, 10)...),
			p50:    interp(0, 0.1, 50, 0, 90),
			p95:    math.Min(interp(1, 10, 95, 90, 10), 5),
			p99:    math.Min(interp(1, 10, 99, 90, 10), 5),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(bounds)
			for _, v := range tc.values {
				h.Observe(v)
			}
			s := h.Snapshot()
			checks := []struct {
				label     string
				got, want float64
			}{{"p50", s.P50, tc.p50}, {"p95", s.P95, tc.p95}, {"p99", s.P99, tc.p99}}
			for _, c := range checks {
				if math.Abs(c.got-c.want) > 1e-12 {
					t.Errorf("%s = %v, want %v", c.label, c.got, c.want)
				}
			}
		})
	}
}

// TestHistogramQuantileBounded: on any data, every quantile from both
// Snapshot.Quantile and CellQuantile is at most the observed Max and
// never decreases as q grows.
func TestHistogramQuantileBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	datasets := [][]float64{{0.3}, {0.05}, append(repeat(0.05, 90), repeat(5, 10)...)}
	for i := 0; i < 200; i++ {
		vals := make([]float64, 1+rng.Intn(50))
		for j := range vals {
			vals[j] = math.Exp(rng.NormFloat64()*3 - 4) // log-normal around 18 ms: µs to minutes
		}
		datasets = append(datasets, vals)
	}
	for _, vals := range datasets {
		h := NewHistogram(nil)
		for _, v := range vals {
			h.Observe(v)
		}
		s := h.Snapshot()
		scratch := make([]uint64, h.NumCells())
		count, max := h.ReadCells(scratch)
		prevSnap, prevCell := 0.0, 0.0
		for q := 0.0; q <= 1; q += 0.01 {
			snap, cell := s.Quantile(q), h.CellQuantile(scratch, count, max, q)
			if snap > s.Max || cell > max {
				t.Fatalf("%d values, max %v: q=%.2f gives snapshot %v, cells %v", len(vals), s.Max, q, snap, cell)
			}
			if snap < prevSnap || cell < prevCell {
				t.Fatalf("%d values: quantile fell at q=%.2f: snapshot %v->%v, cells %v->%v",
					len(vals), q, prevSnap, snap, prevCell, cell)
			}
			prevSnap, prevCell = snap, cell
		}
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
