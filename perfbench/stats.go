package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile is the q-quantile of samples by linear interpolation between
// order statistics. Every percentile the benchmark reports comes from
// its own samples, never from a program histogram.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + time.Duration(frac*float64(s[i+1]-s[i]))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	start     time.Time
	lat       []time.Duration // the workload's unit operation
	at        []time.Duration // when each operation ended, from start
	credits   []int           // operations each one completed, for ops_per_s
	ops       int64
	attempted int64
	failed    int64
	errs      []string
	wall      time.Duration

	cpu            time.Duration // user and system time of the whole process
	allocBytes     uint64
	gcCycles       uint64
	gcPause        time.Duration
	heapPeak       uint64
	goroutinesPeak int
}

// part is a phase for one of several generator goroutines, to merge
// back when they are done.
func (p *phase) part() *phase { return &phase{start: p.start} }

// sample records one unit operation that took lat and completed n
// operations counted by ops_per_s.
func (p *phase) sample(lat time.Duration, n int) {
	p.lat = append(p.lat, lat)
	p.at = append(p.at, time.Since(p.start))
	p.credits = append(p.credits, n)
	p.ops += int64(n)
}

// fail counts one failed operation, keeping the first few reasons.
func (p *phase) fail(msg string) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, msg)
	}
}

// merge folds another goroutine's operations into p.
func (p *phase) merge(o *phase) {
	p.lat = append(p.lat, o.lat...)
	p.at = append(p.at, o.at...)
	p.credits = append(p.credits, o.credits...)
	p.ops += o.ops
	p.attempted += o.attempted
	p.failed += o.failed
	for _, e := range o.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
}

// windows is how many equal stretches a phase is cut into.
const windows = 10

// undisturbed returns the samples and the operation rate of the half of
// the phase's windows that completed the most operations. On a shared
// host the other half carries most of the time stolen by neighbours;
// that interference only ever slows a window down, so the faster half
// is the better estimate of what the code under test does.
func (p *phase) undisturbed() (lat []time.Duration, rate float64) {
	width := p.wall / windows
	if width <= 0 {
		return p.lat, 0
	}
	byWin := make([][]time.Duration, windows)
	ops := make([]int, windows)
	for i, at := range p.at {
		w := min(int(at/width), windows-1)
		byWin[w] = append(byWin[w], p.lat[i])
		ops[w] += p.credits[i]
	}
	order := make([]int, windows)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ops[order[a]] > ops[order[b]] })
	total := 0
	for _, w := range order[:windows/2] {
		lat = append(lat, byWin[w]...)
		total += ops[w]
	}
	return lat, float64(total) / (width * windows / 2).Seconds()
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() (allocs, cycles uint64, pause time.Duration) {
	s := []metrics.Sample{{Name: rtNames[0]}, {Name: rtNames[1]}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), time.Duration(ms.PauseTotalNs)
}

// measure runs fn as one measured phase: it starts from a collected
// heap, samples peak heap and goroutines every few milliseconds, and
// records the runtime's allocation and GC counts across fn.
func measure(fn func(p *phase)) *phase {
	runtime.GC()
	p := &phase{}
	a0, c0, pause0 := readRuntime()
	cpu0 := cpuTime()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s := []metrics.Sample{{Name: rtNames[2]}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > p.heapPeak {
				p.heapPeak = v
			}
			if g := runtime.NumGoroutine(); g > p.goroutinesPeak {
				p.goroutinesPeak = g
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	p.start = time.Now()
	fn(p)
	p.wall = time.Since(p.start)
	close(stop)
	<-done
	a1, c1, pause1 := readRuntime()
	p.cpu = cpuTime() - cpu0
	p.allocBytes, p.gcCycles, p.gcPause = a1-a0, c1-c0, pause1-pause0
	return p
}

// cpuTime is the user plus system time this process has run. A
// hypervisor's stolen time is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
