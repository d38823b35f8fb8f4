package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hdmaps/internal/cluster"
	"hdmaps/internal/core"
	"hdmaps/internal/obs"
	"hdmaps/internal/resilience"
	"hdmaps/internal/storage"
)

// Deployment shape of `hdmapctl serve -cluster`: N tile-server nodes,
// each over its own DirStore behind the overload pipeline, fronted by a
// consistent-hash router at R-way replication, all on loopback
// listeners in this process.
const (
	clusterNodes    = 4
	clusterReplicas = 3
	// nodeCacheSize is the -cache setting of every node in both tile
	// workloads: fetch-hot's hot set fits in it, while each node of
	// region-cold holds several times more tiles than it.
	nodeCacheSize = 128
	tileLayer     = "base"
)

type node struct {
	srv     *http.Server
	handler *resilience.Handler
}

type deployment struct {
	dir       string
	nodes     []node
	router    *cluster.Router
	routerSrv *http.Server
	base      string
	rec       *recorder
}

// serve starts an HTTP server for h on a fresh loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

// bootCluster starts the deployment with the serve command's production
// defaults. With a recorder, every seam is wrapped; without one the
// deployment is exactly what the command builds.
func bootCluster(dir string, rec *recorder) (*deployment, error) {
	d := &deployment{dir: dir, rec: rec}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	// The serve command's tracer and log level: tail-sampled spans kept
	// for slow or failed requests, warnings to standard error.
	rcfg := resilience.Config{
		MaxConcurrent:  64,
		MaxWait:        100 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
		RetryAfter:     time.Second,
		CacheSize:      nodeCacheSize,
		Log:            obs.NewLogger(os.Stderr, "serve", slog.LevelWarn),
	}
	routerReg := obs.NewRegistry()
	rcfg.Tracer = obs.NewTracer(obs.TracerConfig{SlowThreshold: 250 * time.Millisecond, Capacity: 64, Metrics: routerReg})

	nodes := make([]cluster.Node, 0, clusterNodes)
	nodeOf := map[string]int8{}
	for i := 0; i < clusterNodes; i++ {
		name := fmt.Sprintf("node%d", i)
		ds, err := storage.NewDirStore(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		var store storage.TileStore = ds
		if rec != nil {
			store = &tracedStore{rec: rec, node: int8(i), next: ds}
		}
		var inner http.Handler = storage.NewTileServer(store)
		if rec != nil {
			inner = &tracedHandler{rec: rec, layer: lServer, node: int8(i), next: inner}
		}
		ncfg := rcfg
		ncfg.Metrics = obs.NewRegistry()
		h := resilience.NewHandler(inner, ncfg)
		var outer http.Handler = h
		if rec != nil {
			outer = &tracedHandler{rec: rec, layer: lNode, node: int8(i), next: h}
		}
		srv, addr, err := serve(outer)
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, node{srv: srv, handler: h})
		nodes = append(nodes, cluster.Node{Name: name, Base: "http://" + addr})
		nodeOf[addr] = int8(i)
	}
	cfg := cluster.Config{
		Nodes:    nodes,
		Replicas: clusterReplicas,
		Registry: routerReg,
		Tracer:   rcfg.Tracer,
		Logger:   rcfg.Log,
	}
	if rec != nil {
		cfg.Transport = &tracedTransport{rec: rec, layer: lLeg, nodeOf: nodeOf, next: http.DefaultTransport}
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		return nil, err
	}
	rt.Start()
	d.router = rt
	var front http.Handler = rt
	if rec != nil {
		front = &tracedHandler{rec: rec, layer: lRouter, node: -1, next: rt}
	}
	srv, addr, err := serve(front)
	if err != nil {
		return nil, err
	}
	d.routerSrv, d.base = srv, "http://"+addr
	ok = true
	return d, nil
}

// close stops the router first, then its front door, then the nodes,
// as the serve command does, and removes the stores. Removing them at
// once keeps most of their bytes from ever being written back to disk.
func (d *deployment) close() {
	if d.router != nil {
		d.router.Close()
	}
	if d.routerSrv != nil {
		_ = d.routerSrv.Close()
	}
	for _, n := range d.nodes {
		_ = n.srv.Close()
	}
	_ = os.RemoveAll(d.dir)
}

// client is one vehicle: its own connection to the router and its own
// counters. The zero RetryPolicy and Timeout are the production
// defaults.
func (d *deployment) client(id string, cache *storage.TileCache) *storage.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = tr
	if d.rec != nil {
		rt = &tracedTransport{rec: d.rec, layer: lHTTP, next: tr}
	}
	return &storage.Client{
		Base:     d.base,
		HTTP:     &http.Client{Transport: rt},
		ClientID: id,
		Cache:    cache,
		Metrics:  obs.NewRegistry(),
	}
}

// tileSet is a published city: every tile's key, bytes and element
// count, keys sorted by tile coordinates.
type tileSet struct {
	keys  []storage.TileKey
	data  map[storage.TileKey][]byte
	elems map[storage.TileKey]int
}

func splitCity(m *core.Map) *tileSet {
	ts := &tileSet{data: map[storage.TileKey][]byte{}, elems: map[storage.TileKey]int{}}
	for key, tm := range (storage.Tiler{}).Split(m, tileLayer) {
		ts.keys = append(ts.keys, key)
		ts.data[key] = storage.EncodeBinary(tm)
		ts.elems[key] = tm.NumElements()
	}
	sort.Slice(ts.keys, func(i, j int) bool {
		a, b := ts.keys[i], ts.keys[j]
		return a.TX < b.TX || a.TX == b.TX && a.TY < b.TY
	})
	return ts
}

func (ts *tileSet) meanBytes() float64 {
	total := 0
	for _, b := range ts.data {
		total += len(b)
	}
	return ratio(float64(total), float64(len(ts.data)))
}

// publish PUTs every tile through the router from two publishers.
func (d *deployment) publish(ts *tileSet) error {
	const publishers = 2
	errs := make([]error, publishers)
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := d.client(fmt.Sprintf("publisher-%d", p), nil)
			for i := p; i < len(ts.keys); i += publishers {
				key := ts.keys[i]
				if err := c.PutTile(context.Background(), key, ts.data[key]); err != nil {
					errs[p] = fmt.Errorf("publish %v: %w", key, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// nodeTotals sums the nodes' serving counters.
func (d *deployment) nodeTotals() resilience.StatsSnapshot {
	var t resilience.StatsSnapshot
	for _, n := range d.nodes {
		s := n.handler.Stats()
		t.CacheHits += s.CacheHits
		t.CacheMisses += s.CacheMisses
		t.Coalesced += s.Coalesced
		t.Shed += s.Shed
	}
	return t
}
