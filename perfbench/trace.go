package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
)

// The traced run records one span per call at each public seam of the
// serving stack. Spans are kept in memory, joined into request trees on
// the X-Trace-Id header the client already propagates, and written out
// when the run ends. Nothing inside the program is instrumented: every
// span comes from a wrapper in this file around a public interface.

// layer names one seam, outermost first. A span's depth in a request
// tree is its layer.
type layer uint8

const (
	lClient layer = iota // direct call: Client.GetTile / PutTile / FetchRegion
	lHTTP                // http.RoundTripper under storage.Client.HTTP
	lRouter              // http.Handler: the cluster router
	lLeg                 // http.RoundTripper under cluster.Config.Transport
	lNode                // http.Handler: a node's resilience.Handler
	lServer              // http.Handler: the node's storage.TileServer
	lStore               // storage.TileStore under the TileServer or publisher
	nLayers
)

var layerNames = [nLayers]string{"client", "http", "router", "leg", "node", "tileserver", "store"}

// kind classifies the operation a span performs.
type kind uint8

const (
	kOther  kind = iota
	kGet         // one tile read
	kPut         // one tile write
	kList        // a layer listing (store: Keys)
	kRegion      // a whole FetchRegion
	nKinds
)

// span is one timed call at one seam. Times are nanoseconds since the
// recorder's epoch. Store spans carry no trace: they are attached to the
// TileServer span of the same node and key that encloses them.
type span struct {
	trace      string
	layer      layer
	kind       kind
	node       int8 // node index, -1 when the seam is not a node
	tx, ty     int32
	start, end int64
	bytes      int64 // payload bytes moved by the call
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and clears the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// writeSpans writes spans as gzipped CSV, one span a line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "trace,layer,kind,node,tx,ty,start_ns,end_ns,bytes")
	kinds := [nKinds]string{"other", "get", "put", "list", "region"}
	for _, s := range spans {
		fmt.Fprintf(bw, "%s,%s,%s,%d,%d,%d,%d,%d,%d\n", s.trace, layerNames[s.layer], kinds[s.kind],
			s.node, s.tx, s.ty, s.start, s.end, s.bytes)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// classify reads the tile API path: /v1/tiles/<layer>/<tx>/<ty> is a
// tile read or write, /v1/tiles/<layer> a listing.
func classify(method, path string) (k kind, tx, ty int32) {
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	if len(parts) < 3 || parts[0] != "v1" || parts[1] != "tiles" {
		return kOther, 0, 0
	}
	if len(parts) == 3 && method == http.MethodGet {
		return kList, 0, 0
	}
	if len(parts) != 5 {
		return kOther, 0, 0
	}
	x, errX := strconv.ParseInt(parts[3], 10, 32)
	y, errY := strconv.ParseInt(parts[4], 10, 32)
	if errX != nil || errY != nil {
		return kOther, 0, 0
	}
	switch method {
	case http.MethodGet:
		return kGet, int32(x), int32(y)
	case http.MethodPut:
		return kPut, int32(x), int32(y)
	}
	return kOther, int32(x), int32(y)
}

// tracedHandler times an http.Handler seam. Meta endpoints (probes,
// metrics scrapes) are not part of any request tree and pass through.
type tracedHandler struct {
	rec   *recorder
	layer layer
	node  int8
	next  http.Handler
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		h.next.ServeHTTP(w, r)
		return
	}
	k, tx, ty := classify(r.Method, r.URL.Path)
	start := h.rec.now()
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	h.rec.add(span{
		trace: r.Header.Get(obs.TraceHeader), layer: h.layer, kind: k, node: h.node,
		tx: tx, ty: ty, start: start, end: h.rec.now(), bytes: cw.n,
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// tracedTransport times an http.RoundTripper seam from the request to
// the end of its response body, so the span covers the whole exchange
// the caller waits for.
type tracedTransport struct {
	rec    *recorder
	layer  layer
	nodeOf map[string]int8 // URL host -> node index
	next   http.RoundTripper
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	trace := req.Header.Get(obs.TraceHeader)
	if trace == "" || !strings.HasPrefix(req.URL.Path, "/v1/") {
		return t.next.RoundTrip(req)
	}
	k, tx, ty := classify(req.Method, req.URL.Path)
	node, ok := t.nodeOf[req.URL.Host]
	if !ok {
		node = -1
	}
	s := span{trace: trace, layer: t.layer, kind: k, node: node, tx: tx, ty: ty, start: t.rec.now()}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.end = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// spanBody ends its span at the first EOF or Close.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.end = b.rec.now()
		b.rec.add(b.s)
	})
}

// tracedStore times a storage.TileStore seam.
type tracedStore struct {
	rec  *recorder
	node int8
	next storage.TileStore
}

func (s *tracedStore) record(k kind, key storage.TileKey, start int64, n int) {
	s.rec.add(span{layer: lStore, kind: k, node: s.node, tx: key.TX, ty: key.TY,
		start: start, end: s.rec.now(), bytes: int64(n)})
}

func (s *tracedStore) Put(key storage.TileKey, data []byte) error {
	start := s.rec.now()
	err := s.next.Put(key, data)
	s.record(kPut, key, start, len(data))
	return err
}

func (s *tracedStore) Get(key storage.TileKey) ([]byte, error) {
	start := s.rec.now()
	data, err := s.next.Get(key)
	s.record(kGet, key, start, len(data))
	return data, err
}

func (s *tracedStore) Keys(layer string) ([]storage.TileKey, error) {
	start := s.rec.now()
	keys, err := s.next.Keys(layer)
	s.record(kList, storage.TileKey{}, start, 0)
	return keys, err
}

func (s *tracedStore) ListLayers() ([]string, error) {
	start := s.rec.now()
	out, err := s.next.ListLayers()
	s.record(kOther, storage.TileKey{}, start, 0)
	return out, err
}

func (s *tracedStore) Delete(key storage.TileKey) error {
	start := s.rec.now()
	err := s.next.Delete(key)
	s.record(kOther, key, start, 0)
	return err
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

func (iv interval) len() int64 {
	if iv.hi <= iv.lo {
		return 0
	}
	return iv.hi - iv.lo
}

func (iv interval) clip(to interval) interval {
	if iv.lo < to.lo {
		iv.lo = to.lo
	}
	if iv.hi > to.hi {
		iv.hi = to.hi
	}
	if iv.hi < iv.lo {
		iv.hi = iv.lo
	}
	return iv
}

// covered is the length of the union of ivs after clipping each to
// within. Overlapping intervals count once.
func covered(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if c := iv.clip(within); c.len() > 0 {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	cur := interval{lo: -1, hi: -1}
	for _, c := range clipped {
		if c.lo > cur.hi {
			total += cur.len()
			cur = c
			continue
		}
		if c.hi > cur.hi {
			cur.hi = c.hi
		}
	}
	return total + cur.len()
}

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the parent. Parallel children (quorum
// legs) count once, and a child that outlives its parent (a detached
// coalescing leader, a read finisher) counts only while the parent ran.
func selfTime(parent interval, children []interval) int64 {
	return parent.len() - covered(parent, children)
}

// overlap is the length two intervals share.
func overlap(a, b interval) int64 { return a.clip(b).len() }
