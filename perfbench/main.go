// Command perfbench is the end-to-end benchmark of the HD-map system.
// In one process it boots the `hdmapctl serve -cluster` deployment, the
// `hdmapctl ingest` maintenance service or the monocular localizer, and
// drives one named workload through public APIs for about --seconds:
//
//	bash perfbench/run.sh --workload fetch-hot --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload once bare and once with every public seam wrapped in a
// span recorder, and prints the per-layer breakdown. The last line of
// standard output is the result as one JSON object. Each result is also
// written, stamped with the host's fingerprint, under
// .bench_build/results; --compare <dir-a> <dir-b> sets two such
// directories side by side.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// instance is one set-up workload.
type instance interface {
	// begin marks the start of the measured phase for counter deltas.
	begin()
	// run drives the workload's closed loop for d, checking every
	// output, and adds what it did to p.
	run(p *phase, d time.Duration)
	// layers reports per-layer metrics of the phase since begin; spans
	// is nil when the phase ran without wrappers.
	layers(p *phase, spans []span) map[string]float64
	// sizes describes the workload's inputs.
	sizes() string
	close()
}

// warmer is an instance with its own warm-up in place of a second of
// its closed loop.
type warmer interface {
	warm()
}

// summarizer is an instance that picks the latency samples and rate its
// end-to-end figures are computed from, in place of the phase's
// undisturbed windows.
type summarizer interface {
	summary(p *phase) (lat []time.Duration, rate float64)
}

// checker is an instance with checks that can only be made once a phase
// has ended.
type checker interface {
	check(p *phase)
}

type setupCost struct{ worldgen, publish time.Duration }

type workload struct {
	name  string
	setup func(seed int64, dir string, rec *recorder) (instance, setupCost, error)
}

var workloads = []workload{
	{"fetch-hot", setupFetchHot},
	{"region-cold", setupRegionCold},
	{"ingest", setupIngest},
	{"localize", setupLocalize},
}

const (
	// A run times extra set-ups before and after the measured phase:
	// each time at least one, and more until setupBudget is spent (at
	// most maxSetupRounds), so that a set-up of milliseconds is timed
	// often enough to give a steady median, and a few seconds of
	// interference on the host cannot shift all of them. setup_s is the
	// median of these and the measured set-up.
	setupBudget    = time.Second
	maxSetupRounds = 250
	warmup         = time.Second
	outDir         = ".bench_build"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "fetch-hot, region-cold, ingest or localize")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 prints the per-layer breakdown of a traced run")
	compare := fs.Bool("compare", false, "compare two result directories given as arguments")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench --compare <results-a> <results-b>")
			return 2
		}
		if err := compareDirs(fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload fetch-hot|region-cold|ingest|localize, --seconds >= 1, --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, d, work)
	} else {
		res, err = plainRun(w, *seed, d, work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fp := hostFingerprint(*seed)
	if err := saveResult(fp, w.name, *trace, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stamp, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", stamp)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// outcome is what one trial measured.
type outcome struct {
	p      *phase
	layers map[string]float64
	cost   setupCost
	// lat and rate are the samples and operation rate the end-to-end
	// figures are computed from.
	lat  []time.Duration
	rate float64
}

// trial is one setup of a workload and one measured phase on it.
func trial(w *workload, seed int64, d time.Duration, dir string, rec *recorder) (*outcome, error) {
	runtime.GC()
	inst, cost, err := w.setup(seed, dir, rec)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer inst.close()
	fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, inst.sizes())
	warm := &phase{}
	if wm, ok := inst.(warmer); ok {
		wm.warm()
	} else {
		inst.run(warm, warmup)
	}
	var spans []span
	if rec != nil {
		rec.take()
	}
	inst.begin()
	p := measure(func(p *phase) { inst.run(p, d) })
	if c, ok := inst.(checker); ok {
		c.check(p)
	}
	p.attempted += warm.attempted
	p.failed += warm.failed
	p.errs = append(warm.errs, p.errs...)
	if rec != nil {
		spans = rec.take()
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.csv.gz", w.name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			if err := writeSpans(path, spans); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			}
		}
	}
	out := &outcome{p: p, layers: inst.layers(p, spans), cost: cost}
	if sm, ok := inst.(summarizer); ok {
		out.lat, out.rate = sm.summary(p)
	} else {
		out.lat, out.rate = p.undisturbed()
	}
	fmt.Fprintf(os.Stderr, "%s: %d operations in %.1f s, %d failed\n", w.name, p.attempted, p.wall.Seconds(), p.failed)
	for _, e := range p.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	return out, nil
}

// plainRun times set-ups of the workload around one measured set-up
// without wrappers, and reports the end-to-end metrics.
func plainRun(w *workload, seed int64, d time.Duration, work string) (*result, error) {
	before, err := timeSetups(w, seed, filepath.Join(work, "before"))
	if err != nil {
		return nil, err
	}
	out, err := trial(w, seed, d, filepath.Join(work, "measured"), nil)
	if err != nil {
		return nil, err
	}
	after, err := timeSetups(w, seed, filepath.Join(work, "after"))
	if err != nil {
		return nil, err
	}
	p, cost := out.p, out.cost
	setups := append(append(before, after...), (cost.worldgen + cost.publish).Seconds())
	res := newResult(p)
	lat, rate := out.lat, out.rate
	res.Metrics = map[string]metric{
		"setup_s":         {median(setups), "s"},
		"op_p50_ms":       {ms(quantile(lat, 0.50)), "ms"},
		"ops_per_s":       {rate, "1/s"},
		"alloc_kb_per_op": {float64(p.allocBytes) / 1024 / float64(max(p.ops, 1)), "KiB"},
		"ok_ratio":        {1 - ratio(float64(res.Failed), float64(res.Attempted)), "ratio"},
		"heap_peak_mb":    {float64(p.heapPeak) / (1 << 20), "MiB"},
	}
	return res, nil
}

// timeSetups sets the workload up and tears it down at least once and
// for at least setupBudget, and returns each set-up's time.
func timeSetups(w *workload, seed int64, dir string) ([]float64, error) {
	var setups []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < setupBudget && i < maxSetupRounds; i++ {
		// Each set-up starts from a collected heap, as the measured one
		// does, so garbage from the one before does not land in it.
		runtime.GC()
		inst, cost, err := w.setup(seed, filepath.Join(dir, strconv.Itoa(i)), nil)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, (cost.worldgen + cost.publish).Seconds())
		inst.close()
	}
	return setups, nil
}

// tracedRun measures the workload once bare and once with every seam
// wrapped, each for half the time, and reports the per-layer metrics of
// the traced phase with the tracing overhead between the two.
func tracedRun(w *workload, seed int64, d time.Duration, work string) (*result, error) {
	half := d / 2
	bareOut, err := trial(w, seed, half, filepath.Join(work, "bare"), nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	tracedOut, err := trial(w, seed, half, filepath.Join(work, "traced"), rec)
	if err != nil {
		return nil, err
	}
	bare, p, layers, cost := bareOut.p, tracedOut.p, tracedOut.layers, bareOut.cost
	both := &phase{attempted: bare.attempted + p.attempted, failed: bare.failed + p.failed}
	res := newResult(both)
	res.Metrics = map[string]metric{}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{layers[m.name], m.unit}
	}
	ops := float64(max(p.ops, 1))
	set := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(name)} }
	set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)))
	set("op_p95_ms", ms(quantile(bareOut.lat, 0.95)))
	set("op_p99_ms", ms(quantile(bareOut.lat, 0.99)))
	set("op_samples", float64(len(bareOut.lat)))
	// Runtime costs are the program's, so they come from the bare phase.
	bareOps := float64(max(bare.ops, 1))
	set("runtime.cpu_ms_per_op", ms(bare.cpu)/bareOps)
	set("runtime.alloc_bytes_per_op", float64(bare.allocBytes)/bareOps)
	set("runtime.gc_cycles_per_op", float64(bare.gcCycles)/bareOps)
	set("runtime.gc_pause_ms", ms(bare.gcPause))
	set("runtime.goroutines_peak", float64(bare.goroutinesPeak))
	set("setup.worldgen_s", cost.worldgen.Seconds())
	set("setup.publish_s", cost.publish.Seconds())
	// Wall time per operation, traced over bare.
	set("trace.overhead_ratio", ratio(p.wall.Seconds()/ops, bare.wall.Seconds()/bareOps))
	// The PUT median is an end-to-end figure: take it from the bare phase.
	if v, ok := bareOut.layers["put_p50_ms"]; ok {
		set("put_p50_ms", v)
	}
	return res, nil
}

func newResult(p *phase) *result {
	return &result{Correct: p.failed == 0, Attempted: max(p.attempted, 1), Failed: p.failed}
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// fingerprint identifies the host and build a result came from. Results
// are comparable only between equal fingerprints (revision and seed
// aside).
type fingerprint struct {
	Seed       int64  `json:"seed"`
	Revision   string `json:"revision"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func (f fingerprint) host() fingerprint { f.Seed, f.Revision = 0, ""; return f }

type savedResult struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Trace       int         `json:"trace"`
	Result      *result     `json:"result"`
}

func saveResult(fp fingerprint, name string, trace int, res *result) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(savedResult{fp, name, trace, res}, "", "  ")
	if err != nil {
		return err
	}
	file := fmt.Sprintf("%s-seed%d-trace%d-%d.json", name, fp.Seed, trace, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}

// compareDirs prints, per workload and metric, the median of each
// directory's results and their ratio, and warns when the results come
// from different hosts or toolchains.
func compareDirs(a, b string) error {
	load := func(dir string) (map[string]map[string][]float64, map[fingerprint]bool, error) {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return nil, nil, err
		}
		vals := map[string]map[string][]float64{}
		hosts := map[fingerprint]bool{}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return nil, nil, err
			}
			var s savedResult
			if err := json.Unmarshal(data, &s); err != nil || s.Result == nil {
				continue
			}
			hosts[s.Fingerprint.host()] = true
			key := fmt.Sprintf("%s/trace%d", s.Workload, s.Trace)
			if vals[key] == nil {
				vals[key] = map[string][]float64{}
			}
			for name, m := range s.Result.Metrics {
				vals[key][name] = append(vals[key][name], m.Value)
			}
		}
		return vals, hosts, nil
	}
	va, ha, err := load(a)
	if err != nil {
		return err
	}
	vb, hb, err := load(b)
	if err != nil {
		return err
	}
	same := len(ha) == 1 && len(hb) == 1
	for h := range ha {
		same = same && hb[h]
	}
	if !same {
		fmt.Println("WARNING: the two result sets come from different hosts or toolchains;")
		fmt.Println("WARNING: a difference below is not evidence of a code change.")
		for h := range ha {
			fmt.Printf("  a: %+v\n", h)
		}
		for h := range hb {
			fmt.Printf("  b: %+v\n", h)
		}
	}
	var keys []string
	for k := range va {
		if vb[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		var names []string
		for n := range va[k] {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(k)
		for _, n := range names {
			ma, mb := median(va[k][n]), median(vb[k][n])
			r := math.NaN()
			if ma != 0 {
				r = mb / ma
			}
			fmt.Printf("  %-36s %14.6g %14.6g  b/a %.3f  (n=%d,%d)\n", n, ma, mb, r, len(va[k][n]), len(vb[k][n]))
		}
	}
	return nil
}
