package cluster

import (
	"cmp"
	"context"
	"net/http"
	"net/url"
	"slices"
	"strings"

	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
)

// tileEntry is one key in a node's /v1/tiles/{layer} listing.
type tileEntry struct {
	TX int32 `json:"tx"`
	TY int32 `json:"ty"`
}

// handleLayers merges /v1/layers across all live nodes, hiding
// cluster-internal hint layers.
func (rt *Router) handleLayers(w http.ResponseWriter, r *http.Request, span *obs.Span) {
	mergeListing(rt, w, r, span, "layers", "/v1/layers",
		func(l string) bool { return !storage.IsInternalLayer(l) }, strings.Compare)
}

// handleList merges a layer's tile listing across all live nodes.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request, span *obs.Span, layer string) {
	if storage.IsInternalLayer(layer) {
		rt.stats.reads.Inc()
		rt.clientError(w, http.StatusNotFound, "not found")
		return
	}
	mergeListing(rt, w, r, span, "list", "/v1/tiles/"+url.PathEscape(layer), nil,
		func(a, b tileEntry) int {
			if c := cmp.Compare(a.TX, b.TX); c != 0 {
				return c
			}
			return cmp.Compare(a.TY, b.TY)
		})
}

// mergeListing is the one merged-listing path: fetch path from every
// live node on a shard.<what> leg, union the entries keep admits (all
// when keep is nil), and answer them sorted by order. One reachable node
// suffices; zero is a shed.
func mergeListing[E comparable](rt *Router, w http.ResponseWriter, r *http.Request, span *obs.Span,
	what, path string, keep func(E) bool, order func(a, b E) int) {
	rt.stats.reads.Inc()
	trace := obs.TraceID(r.Context())
	live, _ := splitAlive(rt.memberList())
	results := fanOut(rt, r.Context(), span, "shard."+what, live,
		func(ctx context.Context, leg *obs.Span, m *member) ([]E, error) {
			var out []E
			err := rt.shardJSON(ctx, trace, leg, m, path, &out)
			return out, err
		})
	seen := map[E]bool{}
	answered := 0
	for range live {
		d := <-results
		if d.err != nil {
			continue
		}
		answered++
		for _, e := range d.v {
			if keep == nil || keep(e) {
				seen[e] = true
			}
		}
	}
	if answered == 0 {
		span.Fail("no node answered " + what)
		rt.shed(w, span, "no node reachable")
		return
	}
	merged := make([]E, 0, len(seen))
	for e := range seen {
		merged = append(merged, e)
	}
	slices.SortFunc(merged, order)
	rt.stats.served.Inc()
	storage.WriteJSON(w, merged)
}
