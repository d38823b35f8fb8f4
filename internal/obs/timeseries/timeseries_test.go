package timeseries

import (
	"math"
	"testing"
	"time"

	"hdmaps/internal/obs"
)

func TestStoreRingBounded(t *testing.T) {
	st := NewStore(4)
	sr := st.Ensure("a.b.c", KindGauge)
	base := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		st.Tick(base.Add(time.Duration(i) * time.Second))
		sr.Set(float64(i))
	}
	snaps := st.Snapshot(0)
	if len(snaps) != 1 {
		t.Fatalf("series count %d, want 1", len(snaps))
	}
	pts := snaps[0].Points
	if len(pts) != 4 {
		t.Fatalf("points %d, want capacity 4", len(pts))
	}
	for i, p := range pts {
		if want := float64(6 + i); p.V != want {
			t.Errorf("point %d = %v, want %v (oldest-first trailing window)", i, p.V, want)
		}
	}
}

func TestStoreWindowSkipsInvalidAndOld(t *testing.T) {
	st := NewStore(16)
	sr := st.Ensure("a.b.c", KindRate)
	base := time.Unix(2000, 0)
	for i := 0; i < 8; i++ {
		st.Tick(base.Add(time.Duration(i) * time.Second))
		if i != 5 { // leave one slot unset — a skipped producer round
			sr.Set(float64(i))
		}
	}
	var got []float64
	n := st.Window("a.b.c", 3*time.Second, func(v float64) { got = append(got, v) })
	// window covers t=4..7 seconds; t=5 is invalid → samples 7, 6, 4.
	if n != 3 || len(got) != 3 {
		t.Fatalf("window samples = %d (%v), want 3", n, got)
	}
	if got[0] != 7 || got[1] != 6 || got[2] != 4 {
		t.Errorf("window values %v, want [7 6 4] newest-first", got)
	}
	if n := st.Window("no.such.series", time.Minute, nil); n != 0 {
		t.Errorf("unknown series window = %d, want 0", n)
	}
}

func TestStoreLateSeriesHasNoPhantomHistory(t *testing.T) {
	st := NewStore(8)
	early := st.Ensure("early.series.v", KindGauge)
	base := time.Unix(3000, 0)
	for i := 0; i < 3; i++ {
		st.Tick(base.Add(time.Duration(i) * time.Second))
		early.Set(1)
	}
	late := st.Ensure("late.series.v", KindGauge)
	st.Tick(base.Add(3 * time.Second))
	early.Set(1)
	late.Set(9)
	for _, ss := range st.Snapshot(0) {
		switch ss.Name {
		case "early.series.v":
			if len(ss.Points) != 4 {
				t.Errorf("early series has %d points, want 4", len(ss.Points))
			}
		case "late.series.v":
			if len(ss.Points) != 1 || ss.Points[0].V != 9 {
				t.Errorf("late series points = %+v, want exactly the one real sample", ss.Points)
			}
		}
	}
}

func TestSamplerRatesGaugesQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("test.sample.hits")
	g := reg.Gauge("test.sample.depth")
	h := reg.Histogram("test.sample.latency_seconds", nil)

	s := NewSampler(Config{Registry: reg, Interval: time.Second, Capacity: 32})
	base := time.Unix(5000, 0)
	s.SampleNow(base) // resync + baseline tick

	c.Add(10)
	g.Set(7)
	for i := 0; i < 100; i++ {
		h.Observe(0.002)
	}
	s.SampleNow(base.Add(2 * time.Second)) // dt = 2s

	st := s.Store()
	if v, ok := st.Last("test.sample.hits"); !ok || v != 5 {
		t.Errorf("counter rate = %v ok=%v, want 5/sec over 2s", v, ok)
	}
	if v, ok := st.Last("test.sample.depth"); !ok || v != 7 {
		t.Errorf("gauge = %v ok=%v, want 7", v, ok)
	}
	if v, ok := st.Last("test.sample.latency_seconds.rate"); !ok || v != 50 {
		t.Errorf("histogram rate = %v ok=%v, want 50/sec", v, ok)
	}
	if v, ok := st.Last("test.sample.latency_seconds.p99"); !ok || v <= 0 || v > 0.0025 {
		t.Errorf("p99 = %v ok=%v, want within the 2.5ms bucket", v, ok)
	}
}

func TestSamplerCounterResetClamps(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("test.reset.hits").Add(100)
	s := NewSampler(Config{Registry: reg, Interval: time.Second})
	base := time.Unix(6000, 0)
	s.SampleNow(base)

	// Simulate a node restart as federation sees it: the entry baseline
	// is above the freshly-observed value.
	for _, e := range s.counters {
		e.last = 1000
	}
	s.SampleNow(base.Add(time.Second))
	if v, ok := s.Store().Last("test.reset.hits"); !ok || v != 100 {
		t.Errorf("post-reset rate = %v ok=%v, want clamp to observed value 100", v, ok)
	}
	if v, ok := s.Store().Last("test.reset.hits"); !ok || math.IsNaN(v) || v < 0 {
		t.Errorf("post-reset rate = %v ok=%v, must never go negative", v, ok)
	}
}

func TestSamplerPicksUpNewMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("test.grow.first")
	s := NewSampler(Config{Registry: reg, Interval: time.Second})
	base := time.Unix(7000, 0)
	s.SampleNow(base)

	reg.Counter("test.grow.second").Add(3)
	s.SampleNow(base.Add(time.Second))
	if _, ok := s.Store().Last("test.grow.second"); !ok {
		t.Fatal("new counter not picked up after registration")
	}
	// The arrival baseline is the value at resync: no spike from the
	// pre-registration total.
	if v, _ := s.Store().Last("test.grow.second"); v != 0 {
		t.Errorf("new counter first rate = %v, want 0 (baseline at resync)", v)
	}
}

// TestSamplerAllocBudget pins the sampling hot path at zero
// allocations, the same way TestSpanAllocBudget pins span overhead: a
// fixed-interval sampler runs forever in a serving process, so any
// per-round allocation is a slow leak of CPU to the GC.
func TestSamplerAllocBudget(t *testing.T) {
	reg := obs.NewRegistry()
	counters := []*obs.Counter{
		reg.Counter("budget.c.a"), reg.Counter("budget.c.b"), reg.Counter("budget.c.c"),
		reg.Counter("budget.c.d"), reg.Counter("budget.c.e"), reg.Counter("budget.c.f"),
		reg.Counter("budget.c.g"), reg.Counter("budget.c.h"), reg.Counter("budget.c.i"),
		reg.Counter("budget.c.j"), reg.Counter("budget.c.k"), reg.Counter("budget.c.l"),
		reg.Counter("budget.c.m"), reg.Counter("budget.c.n"), reg.Counter("budget.c.o"),
		reg.Counter("budget.c.p"), reg.Counter("budget.c.q"), reg.Counter("budget.c.r"),
		reg.Counter("budget.c.s"), reg.Counter("budget.c.t"),
	}
	gauges := []*obs.Gauge{reg.Gauge("budget.g.a"), reg.Gauge("budget.g.b")}
	hists := []*obs.Histogram{
		reg.Histogram("budget.h.a", nil),
		reg.Histogram("budget.h.b", nil),
		reg.Histogram("budget.h.c", nil),
	}
	s := NewSampler(Config{Registry: reg, Interval: time.Second, Capacity: 64})
	now := time.Unix(8000, 0)
	s.SampleNow(now) // resync round: allocations allowed here only

	if n := testing.AllocsPerRun(500, func() {
		for _, c := range counters {
			c.Inc()
		}
		for i, g := range gauges {
			g.Set(int64(i))
		}
		for _, h := range hists {
			h.Observe(0.001)
		}
		now = now.Add(time.Second)
		s.SampleNow(now)
	}); n != 0 {
		t.Fatalf("SampleNow allocates %v/op in steady state, want 0", n)
	}
}

func TestSamplerStartClose(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("test.loop.ticks")
	s := NewSampler(Config{Registry: reg, Interval: time.Millisecond, Capacity: 16})
	s.Start()
	deadline := time.Now().Add(2 * time.Second)
	for s.Store().Ticks() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if s.Store().Ticks() == 0 {
		t.Fatal("background loop never sampled")
	}
	s.Close() // idempotent

	// Close without Start must not hang.
	s2 := NewSampler(Config{Registry: reg})
	s2.Close()
}

// TestStoreWrapExactlyAtCapacity pins the eviction boundary: tick
// number cap keeps every point, tick cap+1 evicts exactly the oldest,
// and Last/Window stay consistent across the wrap — the off-by-one a
// modular ring gets wrong first.
func TestStoreWrapExactlyAtCapacity(t *testing.T) {
	const capacity = 5
	st := NewStore(capacity)
	sr := st.Ensure("wrap.bound.v", KindGauge)
	base := time.Unix(8000, 0)

	for i := 0; i < capacity; i++ {
		st.Tick(base.Add(time.Duration(i) * time.Second))
		sr.Set(float64(i))
	}
	pts := st.Snapshot(0)[0].Points
	if len(pts) != capacity || pts[0].V != 0 || pts[capacity-1].V != capacity-1 {
		t.Fatalf("at capacity: points %+v, want 0..%d intact", pts, capacity-1)
	}

	// One more tick: slot 0 is overwritten, nothing else moves.
	st.Tick(base.Add(capacity * time.Second))
	sr.Set(float64(capacity))
	pts = st.Snapshot(0)[0].Points
	if len(pts) != capacity || pts[0].V != 1 || pts[capacity-1].V != capacity {
		t.Fatalf("past capacity: points %+v, want 1..%d", pts, capacity)
	}
	if v, ok := st.Last("wrap.bound.v"); !ok || v != capacity {
		t.Errorf("Last across wrap = %v ok=%v, want %d", v, ok, capacity)
	}
	// A window spanning the whole ring sees exactly capacity samples —
	// the wrapped-away point is gone, not double-counted.
	if n := st.Window("wrap.bound.v", time.Hour, nil); n != capacity {
		t.Errorf("full window across wrap = %d samples, want %d", n, capacity)
	}
}

// TestSamplerRestartBaselinesAtCurrentValue models a sampler process
// restart over a registry that kept counting: the first round after
// construction must baseline at the current counter value — the
// accumulated total is uptime, not rate — and a counter reset observed
// after the restart still clamps to the post-reset value.
func TestSamplerRestartBaselinesAtCurrentValue(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("test.restart.hits")
	c.Add(5000) // history accumulated before this sampler existed

	s := NewSampler(Config{Registry: reg, Interval: time.Second})
	base := time.Unix(9000, 0)
	s.SampleNow(base)
	if v, ok := s.Store().Last("test.restart.hits"); !ok || v != 0 {
		t.Fatalf("first post-restart rate = %v ok=%v, want 0 (no uptime spike)", v, ok)
	}

	// Normal increments rate as usual from the restart baseline.
	c.Add(30)
	s.SampleNow(base.Add(time.Second))
	if v, ok := s.Store().Last("test.restart.hits"); !ok || v != 30 {
		t.Fatalf("steady rate after restart = %v ok=%v, want 30", v, ok)
	}

	// A second restart mid-history: same guarantee holds with a fresh
	// sampler over the same, further-advanced registry.
	s2 := NewSampler(Config{Registry: reg, Interval: time.Second})
	s2.SampleNow(base.Add(2 * time.Second))
	if v, ok := s2.Store().Last("test.restart.hits"); !ok || v != 0 {
		t.Fatalf("second restart rate = %v ok=%v, want 0", v, ok)
	}
	c.Add(7)
	s2.SampleNow(base.Add(3 * time.Second))
	if v, ok := s2.Store().Last("test.restart.hits"); !ok || v != 7 || v < 0 {
		t.Errorf("rate after second restart = %v ok=%v, want 7 and never negative", v, ok)
	}
}

// TestConfigDefaults: zero and negative knobs resolve to the documented
// defaults, explicit values survive.
func TestConfigDefaults(t *testing.T) {
	reg := obs.NewRegistry()
	defaults := Config{Registry: obs.Default(), Interval: 5 * time.Second, Capacity: 360}
	explicit := Config{Registry: reg, Interval: time.Second, Capacity: 9}
	cases := []struct {
		name     string
		in, want Config
	}{
		{"zero", Config{}, defaults},
		{"negative", Config{Interval: -1, Capacity: -1}, defaults},
		{"explicit", explicit, explicit},
	}
	for _, tc := range cases {
		if got := tc.in.withDefaults(); got != tc.want {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
