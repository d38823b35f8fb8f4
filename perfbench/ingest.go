package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hdmaps/internal/chaos"
	"hdmaps/internal/core"
	"hdmaps/internal/geo"
	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
	"hdmaps/internal/update/incremental"
	"hdmaps/internal/update/ingest"
	"hdmaps/internal/worldgen"
)

const (
	commitEvery = 16 // hdmapctl ingest's -commit-every
	// reportsPerSource bounds each vehicle's reports, so no source can
	// reach the breaker's default five failures even when every delivery
	// of both its reports (duplicates included) is hostile.
	reportsPerSource = 2
	// baseStamp is the map's logical clock at genesis: report stamps
	// follow it, and a stale rewind never reaches zero.
	baseStamp = 50_000
	// batchesPerSecond sizes a run. The service keeps every version and
	// every source it has seen in memory, so its heap grows with the work
	// done; a run therefore feeds a fixed number of batches, this many
	// per requested second, which take about that long on a 2-vCPU host.
	batchesPerSecond = 20
)

// ingestCity is a 4x4 signalised grid at 400 m blocks, 16 tiles; its 48
// traffic lights are what the fleet re-observes. The commit gate's
// pairwise displacement check grows with the square of the map and
// dominates a batch: a commit of this map takes about 40 ms.
var ingestCity = worldgen.GridParams{Rows: 4, Cols: 4, Block: 400, TrafficLights: true}

// hdmapctl ingest's default fault shares.
var reportChaos = chaos.ReportChaosConfig{
	MalformProb:   0.08,
	ByzantineProb: 0.05,
	DuplicateProb: 0.05,
	StaleProb:     0.05,
}

type anchor struct {
	p     geo.Vec2
	class core.Class
}

type ingestEnv struct {
	seed        int64
	dir         string
	rec         *recorder
	vs          *ingest.VersionStore
	svc         *ingest.Service
	reg         *obs.Registry
	inj         *chaos.ReportInjector
	anchors     []anchor
	rng         *rand.Rand
	next        uint64 // reports synthesized so far
	counters    map[string]*obs.Counter
	stageBase   map[string]obs.HistogramSnapshot
	countBase   map[string]uint64
	injBase     chaos.ReportStats
	versionBase int64
	submitLat   []time.Duration
	userBytes   int64 // JSON size of the clean reports fed while measured
}

var stages = []string{"validate", "screen", "fuse", "commit", "publish"}

var reasons = []ingest.Reason{
	ingest.ReasonMalformed, ingest.ReasonStale, ingest.ReasonDuplicate, ingest.ReasonByzantine,
	ingest.ReasonShed, ingest.ReasonOverload, ingest.ReasonPanic,
}

func setupIngest(seed int64, dir string, rec *recorder) (instance, setupCost, error) {
	var cost setupCost
	t0 := time.Now()
	g, err := worldgen.GenerateGrid(ingestCity, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, cost, err
	}
	base := g.Map
	if base.Clock < baseStamp {
		base.SetClock(baseStamp)
	}
	e := &ingestEnv{seed: seed, dir: dir, rec: rec, reg: obs.NewRegistry(), rng: rand.New(rand.NewSource(seed))}
	var lo, hi geo.Vec2
	for i, id := range base.PointIDs() {
		p, _ := base.Point(id)
		a := anchor{p: geo.V2(p.Pos.X, p.Pos.Y), class: p.Class}
		e.anchors = append(e.anchors, a)
		if i == 0 {
			lo, hi = a.p, a.p
		}
		lo = geo.V2(min(lo.X, a.p.X), min(lo.Y, a.p.Y))
		hi = geo.V2(max(hi.X, a.p.X), max(hi.Y, a.p.Y))
	}
	cost.worldgen = time.Since(t0)

	// The hdmapctl ingest shape: a durable version directory seeded with
	// the base map, and committed versions published to a tile
	// directory.
	t1 := time.Now()
	vs, err := ingest.OpenVersionDir(filepath.Join(dir, "versions"), ingest.GateConfig{})
	if err != nil {
		return nil, cost, err
	}
	if _, err := vs.Commit(base, "genesis"); err != nil {
		return nil, cost, err
	}
	ds, err := storage.NewDirStore(filepath.Join(dir, "tiles"))
	if err != nil {
		return nil, cost, err
	}
	var tiles storage.TileStore = ds
	if rec != nil {
		tiles = &tracedStore{rec: rec, node: -1, next: ds}
	}
	if _, _, err := (storage.Tiler{}).SyncMap(tiles, vs.Frozen(), "serve"); err != nil {
		return nil, cost, err
	}
	svc, err := ingest.NewService(vs, ingest.Config{
		CommitEvery: commitEvery,
		Publish:     &ingest.PublishConfig{Store: tiles, Layer: "serve", Tiler: storage.Tiler{}},
		Metrics:     e.reg,
	})
	if err != nil {
		return nil, cost, err
	}
	cost.publish = time.Since(t1)
	cc := reportChaos
	cc.Seed = seed
	cc.Metrics = e.reg
	// A mis-georeferenced report must land off the map. The injector's
	// default 500 m shift would land a grid city's report on other
	// intersections' lights, where screening rightly accepts it.
	cc.Offset = 4 * (hi.Sub(lo).Norm() + 500)
	e.inj = chaos.NewReportInjector(cc)
	e.vs, e.svc = vs, svc
	e.counters = map[string]*obs.Counter{}
	e.reg.Each(func(name string, c *obs.Counter) { e.counters[name] = c }, nil, nil)
	return e, cost, nil
}

func (e *ingestEnv) sizes() string {
	m := e.vs.Frozen()
	tiles := (storage.Tiler{}).Split(m, "serve")
	return fmt.Sprintf("%d elements, %d anchors, %d tiles; commit every %d accepted reports; fault shares malform %.2f byzantine %.2f duplicate %.2f stale %.2f",
		m.NumElements(), len(e.anchors), len(tiles), commitEvery,
		reportChaos.MalformProb, reportChaos.ByzantineProb, reportChaos.DuplicateProb, reportChaos.StaleProb)
}

func (e *ingestEnv) close() {
	e.svc.Close()
	_ = os.RemoveAll(e.dir)
}

func (e *ingestEnv) count(name string) uint64 {
	if c := e.counters[name]; c != nil {
		return c.Value()
	}
	return 0
}

func (e *ingestEnv) quarantined() uint64 {
	var n uint64
	for _, r := range reasons {
		n += e.count("ingest.quarantine.reason." + string(r))
	}
	return n
}

// synth re-observes the lights around one random anchor with 0.3 m
// noise, as hdmapctl ingest's synthesizer does; each source vehicle
// sends reportsPerSource reports.
func (e *ingestEnv) synth() ingest.Report {
	i := e.next
	e.next++
	center := e.anchors[e.rng.Intn(len(e.anchors))]
	r := ingest.Report{
		Source: fmt.Sprintf("veh-%d", i/reportsPerSource),
		Seq:    i%reportsPerSource + 1,
		Stamp:  baseStamp + i + 1,
	}
	for _, a := range e.anchors {
		if dx, dy := a.p.X-center.p.X, a.p.Y-center.p.Y; dx < -60 || dx > 60 || dy < -60 || dy > 60 {
			continue
		}
		r.Observations = append(r.Observations, incremental.Observation{
			Class:  a.class,
			P:      geo.V2(a.p.X+e.rng.NormFloat64()*0.3, a.p.Y+e.rng.NormFloat64()*0.3),
			PosVar: 0.1,
			Stamp:  r.Stamp,
		})
	}
	return r
}

func (e *ingestEnv) begin() {
	e.stageBase = map[string]obs.HistogramSnapshot{}
	for _, s := range stages {
		e.stageBase[s] = e.stage(s)
	}
	e.countBase = map[string]uint64{}
	for name, c := range e.counters {
		e.countBase[name] = c.Value()
	}
	e.injBase = e.inj.Stats()
	e.versionBase = dirBytes(filepath.Join(e.dir, "versions"))
	e.submitLat = nil
	e.userBytes = 0
}

func (e *ingestEnv) stage(name string) obs.HistogramSnapshot {
	if h := e.reg.LookupHistogram("ingest.stage.duration_seconds." + name); h != nil {
		return h.Snapshot()
	}
	return obs.HistogramSnapshot{}
}

// run feeds d's worth of batches of commitEvery clean reports, mangled
// by the injector, and waits after each until every report is accounted
// and any commit it triggered is published. At most one batch is
// unaccounted at a time, far below the queue depth, so no report is
// shed as overload.
func (e *ingestEnv) run(p *phase, d time.Duration) {
	batches := int(d.Seconds() * batchesPerSecond)
	accounted := e.count("ingest.report.accepted") + e.quarantined()
	for b := 0; b < batches; b++ {
		start := time.Now()
		before := accounted
		for i := 0; i < commitEvery; i++ {
			clean := e.synth()
			if e.rec != nil {
				if raw, err := json.Marshal(clean); err == nil {
					e.userBytes += int64(len(raw))
				}
			}
			out, _ := e.inj.Mangle(clean)
			for _, r := range out {
				t0 := time.Now()
				err := e.svc.Submit(r)
				if e.rec != nil {
					e.submitLat = append(e.submitLat, time.Since(t0))
				}
				p.attempted++
				if err != nil {
					p.fail(fmt.Sprintf("submit: %v", err))
				}
			}
		}
		if err := e.settle(); err != nil {
			p.fail(err.Error())
			return
		}
		accounted = e.count("ingest.report.accepted") + e.quarantined()
		p.sample(time.Since(start), int(accounted-before))
	}
}

// settle waits until every submitted report is accepted or quarantined
// and every commit those reports triggered is published.
func (e *ingestEnv) settle() error {
	deadline := time.Now().Add(10 * time.Second)
	for e.count("ingest.report.accepted")+e.quarantined() < e.count("ingest.report.submitted") {
		if time.Now().After(deadline) {
			return fmt.Errorf("reports unaccounted after 10s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	// A commit runs inside the fuse of the report that completes a
	// batch, under the lock Metrics takes; once Metrics returns, that
	// commit and its publish are done.
	e.svc.Metrics()
	for {
		m := e.svc.Metrics()
		if m.Commits+m.CommitsRejected >= m.Accepted/commitEvery && m.Published+m.PublishErrors >= m.Commits {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("commit of %d accepted reports not published after 10s", m.Accepted)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// check holds the service's accounting to the injector's fault log, as
// the chaos soak does: every report is accepted or quarantined, each
// fault lands in its own quarantine reason (a duplicate of a malformed
// report is malformed, so those two reconcile jointly), nothing is shed
// and every commit of the clean batches passes the gate and publishes.
func (e *ingestEnv) check(p *phase) {
	m := e.svc.Metrics()
	st := e.inj.Stats()
	q := m.Quarantined
	mismatch := func(name string, got, want uint64) {
		if got != want {
			d := int64(got) - int64(want)
			if d < 0 {
				d = -d
			}
			p.failed += d
			p.errs = append(p.errs, fmt.Sprintf("ingest %s = %d, want %d", name, got, want))
		}
	}
	mismatch("submitted", m.Submitted, m.Accepted+m.QuarantineTotal)
	mismatch("byzantine", q[ingest.ReasonByzantine], st.Byzantine)
	mismatch("stale", q[ingest.ReasonStale], st.Stale)
	mismatch("malformed+duplicate", q[ingest.ReasonMalformed]+q[ingest.ReasonDuplicate], st.Malformed+st.Duplicates)
	mismatch("shed", q[ingest.ReasonShed], 0)
	mismatch("overload", q[ingest.ReasonOverload], 0)
	mismatch("panic", q[ingest.ReasonPanic], 0)
	mismatch("publish errors", m.PublishErrors, 0)
	mismatch("commits rejected", m.CommitsRejected, 0)
}

func (e *ingestEnv) layers(p *phase, spans []span) map[string]float64 {
	out := map[string]float64{}
	delta := func(name string) float64 { return float64(e.count(name) - e.countBase[name]) }
	for _, s := range stages {
		now, was := e.stage(s), e.stageBase[s]
		out["ingest.stage."+s+".mean_ms"] = ratio((now.Sum-was.Sum)*1e3, float64(now.Count-was.Count))
	}
	for _, r := range reasons {
		out["ingest.quarantined."+string(r)] = delta("ingest.quarantine.reason." + string(r))
	}
	// Every injected fault is one hostile delivery: the mangled report,
	// or the extra copy of a duplicated one. The rest are clean.
	st, was := e.inj.Stats(), e.injBase
	submitted := delta("ingest.report.submitted")
	hostile := st.Malformed + st.Byzantine + st.Stale + st.Duplicates - was.Malformed - was.Byzantine - was.Stale - was.Duplicates
	out["ingest.accept_ratio"] = ratio(delta("ingest.report.accepted"), submitted-float64(hostile))
	commits := delta("ingest.version.commits")
	out["ingest.versions.bytes_per_commit"] = ratio(float64(dirBytes(filepath.Join(e.dir, "versions"))-e.versionBase), commits)
	if spans == nil {
		return out
	}
	var sub acc
	for _, d := range e.submitLat {
		sub.add(int64(d))
	}
	out["ingest.submit_ms"] = sub.meanMs()
	var put acc
	var written int64
	for _, s := range spans {
		if s.layer == lStore && s.kind == kPut {
			put.add(s.end - s.start)
			written += s.bytes
		}
	}
	out["store.put_ms"] = put.meanMs()
	out["ingest.publish.tiles_per_commit"] = ratio(float64(put.n), commits)
	out["ingest.publish.bytes_per_report"] = ratio(float64(written), submitted)
	out["store.bytes_written_per_user_byte"] = ratio(float64(written), float64(e.userBytes))
	return out
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
