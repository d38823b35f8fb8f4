package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"hdmaps/internal/cluster"
	"hdmaps/internal/core"
	"hdmaps/internal/obs"
	"hdmaps/internal/resilience"
	"hdmaps/internal/storage"
	"hdmaps/internal/worldgen"
)

const (
	vehicles   = 2   // closed-loop generator goroutines, one connection each
	putEvery   = 20  // fetch-hot: every 20th operation re-publishes a hot tile
	zipfS      = 1.2 // fetch-hot key skew
	vehicleLRU = 256 // region-cold: the onboard TileCache of examples/mapserver
	regionSpan = 3   // region-cold: 3x3-tile windows
)

// Cities: 500 m tiles over a Manhattan grid. fetch-hot's 20x20 grid at
// 200 m blocks is 81 tiles; region-cold's 40x40 grid at 400 m blocks is
// 1,089 tiles, about 817 per node at R=3 of 4 against a 128-response
// node cache.
var (
	hotCity  = worldgen.GridParams{Rows: 20, Cols: 20, Block: 200, TrafficLights: true}
	coldCity = worldgen.GridParams{Rows: 40, Cols: 40, Block: 400, TrafficLights: true}
)

// tileEnv is a booted cluster holding a published city.
type tileEnv struct {
	seed  int64
	dep   *deployment
	tiles *tileSet
	cars  []*storage.Client

	routerBase  cluster.StatsSnapshot
	nodeBase    resilience.StatsSnapshot
	retriesBase uint64
	putBytes    int64 // payload bytes PUT by vehicles while measured
}

func setupTiles(seed int64, dir string, rec *recorder, city worldgen.GridParams, cache int) (*tileEnv, setupCost, error) {
	var cost setupCost
	t0 := time.Now()
	g, err := worldgen.GenerateGrid(city, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, cost, err
	}
	ts := splitCity(g.Map)
	cost.worldgen = time.Since(t0)
	t1 := time.Now()
	dep, err := bootCluster(dir, rec)
	if err != nil {
		return nil, cost, err
	}
	if err := dep.publish(ts); err != nil {
		dep.close()
		return nil, cost, err
	}
	cost.publish = time.Since(t1)
	env := &tileEnv{seed: seed, dep: dep, tiles: ts}
	for v := 0; v < vehicles; v++ {
		var tc *storage.TileCache
		if cache > 0 {
			tc = storage.NewTileCache(cache)
		}
		env.cars = append(env.cars, dep.client(fmt.Sprintf("veh-%d", v), tc))
	}
	return env, cost, nil
}

func (e *tileEnv) close() { e.dep.close() }

func (e *tileEnv) sizes() string {
	perNode := float64(len(e.tiles.keys)) * clusterReplicas / clusterNodes
	return fmt.Sprintf("%d tiles, mean %.0f B; %d nodes at R=%d hold %.0f tiles each against a %d-response cache",
		len(e.tiles.keys), e.tiles.meanBytes(), clusterNodes, clusterReplicas, perNode, nodeCacheSize)
}

func (e *tileEnv) retries() uint64 {
	var n uint64
	for _, c := range e.cars {
		n += c.Metrics.Counter("storage.client.retries").Value()
	}
	return n
}

func (e *tileEnv) begin() {
	e.routerBase = e.dep.router.Stats()
	e.nodeBase = e.dep.nodeTotals()
	e.retriesBase = e.retries()
	e.putBytes = 0
}

// opContext gives a traced operation a trace ID of its own, so every
// span it causes in the cluster joins its tree.
func (e *tileEnv) opContext(v int, op int64) context.Context {
	if e.dep.rec == nil {
		return context.Background()
	}
	return obs.WithTraceID(context.Background(), fmt.Sprintf("v%d-%d", v, op))
}

func (e *tileEnv) rootSpan(ctx context.Context, k kind, key storage.TileKey, start int64, n int) {
	if e.dep.rec == nil {
		return
	}
	e.dep.rec.add(span{trace: obs.TraceID(ctx), layer: lClient, kind: k, node: -1,
		tx: key.TX, ty: key.TY, start: start, end: e.dep.rec.now(), bytes: int64(n)})
}

func (e *tileEnv) now() int64 {
	if e.dep.rec == nil {
		return 0
	}
	return e.dep.rec.now()
}

// layers reads the per-layer metrics of the serving stack: counts from
// the program's own registries, times from the spans.
func (e *tileEnv) layers(p *phase, spans []span) map[string]float64 {
	rs := e.dep.router.Stats()
	ns := e.dep.nodeTotals()
	hits := float64(ns.CacheHits - e.nodeBase.CacheHits)
	misses := float64(ns.CacheMisses - e.nodeBase.CacheMisses)
	out := map[string]float64{
		"client.retries":           float64(e.retries() - e.retriesBase),
		"router.shed":              float64(rs.Shed - e.routerBase.Shed),
		"router.errored":           float64(rs.Errored - e.routerBase.Errored),
		"router.repairs_scheduled": float64(rs.RepairsScheduled - e.routerBase.RepairsScheduled),
		"node.cache_hit_ratio":     ratio(hits, hits+misses),
		"node.coalesced":           float64(ns.Coalesced - e.nodeBase.Coalesced),
		"node.shed":                float64(ns.Shed - e.nodeBase.Shed),
	}
	if spans == nil {
		return out
	}
	b := analyze(spans)
	out["client.get.self_ms"] = b.self[lClient][kGet].meanMs()
	out["client.region.self_ms"] = b.self[lClient][kRegion].meanMs()
	out["client.http_ms"] = b.all(&b.dur, lHTTP).meanMs()
	out["router.self_ms"] = b.all(&b.self, lRouter).meanMs()
	out["router.leg_ms"] = b.all(&b.dur, lLeg).meanMs()
	out["router.legs_per_get"] = ratio(float64(b.count(lLeg, kGet)), float64(b.count(lRouter, kGet)))
	out["router.legs_per_put"] = ratio(float64(b.count(lLeg, kPut)), float64(b.count(lRouter, kPut)))
	out["router.legs_per_list"] = ratio(float64(b.count(lLeg, kList)), float64(b.count(lRouter, kList)))
	out["router.list_bytes"] = ratio(float64(b.bytes[lHTTP][kList]), float64(b.count(lClient, kRegion)))
	out["node.self_ms"] = b.all(&b.self, lNode).meanMs()
	out["tileserver.get.self_ms"] = b.self[lServer][kGet].meanMs()
	out["tileserver.put.self_ms"] = b.self[lServer][kPut].meanMs()
	out["store.get_ms"] = b.dur[lStore][kGet].meanMs()
	out["store.keys_ms"] = b.dur[lStore][kList].meanMs()
	out["store.put_ms"] = b.dur[lStore][kPut].meanMs()
	out["store.reads_per_get"] = ratio(float64(b.storeReadsUnderGet), float64(b.count(lHTTP, kGet)))
	out["store.bytes_read_per_op"] = ratio(float64(b.bytes[lStore][kGet]), float64(b.roots))
	out["store.bytes_written_per_user_byte"] = ratio(float64(b.bytes[lStore][kPut]), float64(e.putBytes))
	attributed := 0.0
	for l := lClient; l < nLayers; l++ {
		v := ratio(float64(b.attr[l])/1e6, float64(b.roots))
		out["attr."+layerNames[l]+"_ms"] = v
		attributed += v
	}
	// The traced end-to-end time of one operation is the vehicles' wall
	// time divided among their operations; what the layers do not
	// account for is the generator's own work between operations.
	perOp := ratio(ms(p.wall)*vehicles, float64(b.roots))
	out["trace.unattributed_ms"] = perOp - attributed
	return out
}

// hotState is the version history of one fetch-hot tile. Each tile has
// one writer, the vehicle owning its rank's parity, so PUTs of a tile
// are issued in clock order.
type hotState struct {
	mu    sync.Mutex
	acked uint64            // newest clock whose PUT was acknowledged
	next  uint64            // clock of the next PUT
	sums  map[uint64]string // checksum of every version published
	m     *core.Map         // the tile, re-encoded per PUT by its writer
}

type fetchHot struct {
	*tileEnv
	state  map[storage.TileKey]*hotState
	rank   []storage.TileKey // zipf rank -> tile
	putLat []time.Duration
}

func setupFetchHot(seed int64, dir string, rec *recorder) (instance, setupCost, error) {
	env, cost, err := setupTiles(seed, dir, rec, hotCity, 0)
	if err != nil {
		return nil, cost, err
	}
	f := &fetchHot{tileEnv: env, state: map[storage.TileKey]*hotState{}}
	for _, key := range env.tiles.keys {
		data := env.tiles.data[key]
		m, err := storage.DecodeBinary(data)
		if err != nil {
			env.close()
			return nil, cost, err
		}
		f.state[key] = &hotState{acked: m.Clock, next: m.Clock + 1,
			sums: map[uint64]string{m.Clock: storage.Checksum(data)}, m: m}
	}
	// Popularity falls off from downtown: tiles are ranked by distance
	// from the city's central tile, so the hottest tiles are full ones and
	// the seed changes which tiles are drawn, not how big the hot set is.
	f.rank = append(f.rank, env.tiles.keys...)
	lo, hi := f.rank[0], f.rank[len(f.rank)-1]
	cx, cy := float64(lo.TX+hi.TX)/2, float64(lo.TY+hi.TY)/2
	dist := func(k storage.TileKey) float64 { return math.Hypot(float64(k.TX)-cx, float64(k.TY)-cy) }
	sort.SliceStable(f.rank, func(i, j int) bool { return dist(f.rank[i]) < dist(f.rank[j]) })
	return f, cost, nil
}

func (f *fetchHot) begin() { f.tileEnv.begin(); f.putLat = nil }

func (f *fetchHot) run(p *phase, d time.Duration) {
	deadline := time.Now().Add(d)
	parts := make([]*phase, vehicles)
	puts := make([][]time.Duration, vehicles)
	putBytes := make([]int64, vehicles)
	var wg sync.WaitGroup
	for v := 0; v < vehicles; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			parts[v] = p.part()
			puts[v], putBytes[v] = f.drive(v, deadline, parts[v])
		}(v)
	}
	wg.Wait()
	for v := 0; v < vehicles; v++ {
		p.merge(parts[v])
		f.putLat = append(f.putLat, puts[v]...)
		f.putBytes += putBytes[v]
	}
}

// drive is one vehicle's closed loop: zipf GETs of the hot set, with
// every putEvery-th operation re-publishing a hot tile it owns.
func (f *fetchHot) drive(v int, deadline time.Time, p *phase) (putLat []time.Duration, putBytes int64) {
	rng := rand.New(rand.NewSource(f.seed*131 + int64(v)))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(f.rank)-1))
	c := f.cars[v]
	for op := int64(0); time.Now().Before(deadline); op++ {
		r := int(zipf.Uint64())
		ctx := f.opContext(v, op)
		p.attempted++
		if op%putEvery == putEvery-1 {
			// The nearest rank this vehicle owns.
			r = r - r%vehicles + v
			if r >= len(f.rank) {
				r -= vehicles
			}
			key := f.rank[r]
			st := f.state[key]
			st.mu.Lock()
			clock := st.next
			st.next++
			st.m.SetClock(clock)
			data := storage.EncodeBinary(st.m)
			st.sums[clock] = storage.Checksum(data)
			st.mu.Unlock()
			start, t0 := f.now(), time.Now()
			err := c.PutTile(ctx, key, data)
			putLat = append(putLat, time.Since(t0))
			f.rootSpan(ctx, kPut, key, start, len(data))
			putBytes += int64(len(data))
			if err != nil {
				p.fail(fmt.Sprintf("put %v: %v", key, err))
				continue
			}
			st.mu.Lock()
			if clock > st.acked {
				st.acked = clock
			}
			st.mu.Unlock()
			continue
		}
		key := f.rank[r]
		st := f.state[key]
		st.mu.Lock()
		floor := st.acked
		st.mu.Unlock()
		start, t0 := f.now(), time.Now()
		data, err := c.GetTile(ctx, key)
		lat := time.Since(t0)
		f.rootSpan(ctx, kGet, key, start, len(data))
		if err == nil {
			if msg := f.checkGet(st, data, floor); msg != "" {
				err = errors.New(msg)
			}
		}
		if err != nil {
			p.sample(lat, 0)
			p.fail(fmt.Sprintf("get %v: %v", key, err))
			continue
		}
		p.sample(lat, 1)
	}
	return putLat, putBytes
}

// checkGet accepts exactly the bytes of a published version no older
// than the newest one acknowledged before the GET began.
func (f *fetchHot) checkGet(st *hotState, data []byte, floor uint64) string {
	clock, err := storage.PeekClock(data)
	if err != nil {
		return err.Error()
	}
	if clock < floor {
		return fmt.Sprintf("stale read: clock %d, acknowledged %d", clock, floor)
	}
	st.mu.Lock()
	want, ok := st.sums[clock]
	st.mu.Unlock()
	if !ok || want != storage.Checksum(data) {
		return fmt.Sprintf("bytes of clock %d were never published", clock)
	}
	return ""
}

func (f *fetchHot) layers(p *phase, spans []span) map[string]float64 {
	out := f.tileEnv.layers(p, spans)
	out["put_p50_ms"] = ms(quantile(f.putLat, 0.5))
	return out
}

type regionCold struct {
	*tileEnv
	minTX, maxTX, minTY, maxTY int32
}

func setupRegionCold(seed int64, dir string, rec *recorder) (instance, setupCost, error) {
	env, cost, err := setupTiles(seed, dir, rec, coldCity, vehicleLRU)
	if err != nil {
		return nil, cost, err
	}
	r := &regionCold{tileEnv: env}
	for i, k := range env.tiles.keys {
		if i == 0 || k.TX < r.minTX {
			r.minTX = k.TX
		}
		if i == 0 || k.TX > r.maxTX {
			r.maxTX = k.TX
		}
		if i == 0 || k.TY < r.minTY {
			r.minTY = k.TY
		}
		if i == 0 || k.TY > r.maxTY {
			r.maxTY = k.TY
		}
	}
	return r, cost, nil
}

func (r *regionCold) run(p *phase, d time.Duration) {
	deadline := time.Now().Add(d)
	parts := make([]*phase, vehicles)
	var wg sync.WaitGroup
	for v := 0; v < vehicles; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			parts[v] = p.part()
			r.drive(v, deadline, parts[v])
		}(v)
	}
	wg.Wait()
	for _, part := range parts {
		p.merge(part)
	}
}

// drive is one vehicle's closed loop of 3x3-tile region pulls at
// uniform random positions.
func (r *regionCold) drive(v int, deadline time.Time, p *phase) {
	rng := rand.New(rand.NewSource(r.seed*131 + int64(v)))
	c := r.cars[v]
	for op := int64(0); time.Now().Before(deadline); op++ {
		tx0 := r.minTX + int32(rng.Intn(int(r.maxTX-r.minTX)-regionSpan+2))
		ty0 := r.minTY + int32(rng.Intn(int(r.maxTY-r.minTY)-regionSpan+2))
		tx1, ty1 := tx0+regionSpan-1, ty0+regionSpan-1
		wantTiles, wantElems := 0, 0
		for tx := tx0; tx <= tx1; tx++ {
			for ty := ty0; ty <= ty1; ty++ {
				if n, ok := r.tiles.elems[storage.TileKey{Layer: tileLayer, TX: tx, TY: ty}]; ok {
					wantTiles++
					wantElems += n
				}
			}
		}
		ctx := r.opContext(v, op)
		p.attempted++
		start, t0 := r.now(), time.Now()
		m, h, err := c.FetchRegion(ctx, tileLayer, tx0, ty0, tx1, ty1, "region")
		lat := time.Since(t0)
		r.rootSpan(ctx, kRegion, storage.TileKey{TX: tx0, TY: ty0}, start, 0)
		switch {
		case err != nil:
		case h.Degraded || h.Fresh != wantTiles:
			err = fmt.Errorf("degraded=%v fresh=%d want %d", h.Degraded, h.Fresh, wantTiles)
		case m.NumElements() != wantElems:
			err = fmt.Errorf("%d elements, want %d", m.NumElements(), wantElems)
		}
		if err != nil {
			p.sample(lat, 0)
			p.fail(fmt.Sprintf("region %d,%d: %v", tx0, ty0, err))
			continue
		}
		p.sample(lat, 1)
	}
}
