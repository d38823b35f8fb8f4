package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// SpanSnapshot is one exported span — the /tracez JSON shape.
type SpanSnapshot struct {
	SpanID        string            `json:"span_id"`
	ParentID      string            `json:"parent_id,omitempty"`
	Name          string            `json:"name"`
	StartUnixNano int64             `json:"start_unix_ns"`
	OffsetNS      int64             `json:"offset_ns"`
	DurationNS    int64             `json:"duration_ns"`
	Attrs         map[string]string `json:"attrs,omitempty"`
	Error         string            `json:"error,omitempty"`
	Unfinished    bool              `json:"unfinished,omitempty"`
}

// TraceSnapshot is one sampled trace as kept by the flight recorder.
// A single logical trace may yield several snapshots — one per process
// "leg" (the client's view and the server's view of the same request
// share a trace ID but finalize independently); /tracez?trace= merges
// them.
type TraceSnapshot struct {
	TraceID      string         `json:"trace_id"`
	RootSpanID   string         `json:"root_span_id"`
	RemoteParent string         `json:"remote_parent,omitempty"`
	Reason       string         `json:"sampled_reason"`
	DurationNS   int64          `json:"duration_ns"`
	SpansDropped uint32         `json:"spans_dropped,omitempty"`
	Spans        []SpanSnapshot `json:"spans"`
}

// flightRecorder is a bounded ring of the last N sampled traces.
// Sampling is rare by design (slow/errored/shed requests only), so a
// plain mutex is fine here; the hot not-sampled path never touches it.
type flightRecorder struct {
	mu    sync.Mutex
	ring  []*TraceSnapshot
	next  int
	total uint64
}

func (r *flightRecorder) add(ts *TraceSnapshot) {
	r.mu.Lock()
	r.ring[r.next] = ts
	r.next = (r.next + 1) % len(r.ring)
	r.total++
	r.mu.Unlock()
}

// Traces returns the recorder's contents, newest first.
func (t *Tracer) Traces() []*TraceSnapshot {
	if t == nil {
		return nil
	}
	r := &t.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*TraceSnapshot, 0, len(r.ring))
	for i := 0; i < len(r.ring); i++ {
		ts := r.ring[(r.next-1-i+2*len(r.ring))%len(r.ring)]
		if ts != nil {
			out = append(out, ts)
		}
	}
	return out
}

// TraceByID returns every recorded snapshot (leg) carrying the trace
// ID, oldest leg first, or nil when the trace is not (or no longer) in
// the ring.
func (t *Tracer) TraceByID(id string) []*TraceSnapshot {
	if t == nil || id == "" {
		return nil
	}
	all := t.Traces()
	var legs []*TraceSnapshot
	for i := len(all) - 1; i >= 0; i-- { // reverse → oldest first
		if all[i].TraceID == id {
			legs = append(legs, all[i])
		}
	}
	return legs
}

// TracezSnapshot is the /tracez index payload.
type TracezSnapshot struct {
	SlowThresholdNS int64            `json:"slow_threshold_ns"`
	Capacity        int              `json:"capacity"`
	MaxSpans        int              `json:"max_spans"`
	Sampled         uint64           `json:"sampled"`
	Dropped         uint64           `json:"dropped"`
	SpanOverflow    uint64           `json:"span_overflow"`
	Traces          []*TraceSnapshot `json:"traces"`
}

// TracezSnap builds the full /tracez payload (exported so tests and
// failure dumps can grab it without HTTP).
func (t *Tracer) TracezSnap() TracezSnapshot {
	if t == nil {
		return TracezSnapshot{}
	}
	st := t.Stats()
	return TracezSnapshot{
		SlowThresholdNS: t.slow.Nanoseconds(),
		Capacity:        len(t.rec.ring),
		MaxSpans:        t.maxSpans,
		Sampled:         st.Sampled,
		Dropped:         st.Dropped,
		SpanOverflow:    st.SpanOverflow,
		Traces:          t.Traces(),
	}
}

// TracezHandler serves the flight recorder — mount it at /tracez.
//
//	GET /tracez                  JSON index: config, counters, all traces
//	GET /tracez?trace=<id>       JSON legs of one trace (404 if evicted)
//	GET /tracez?format=text      plain-text waterfall of every trace
//	GET /tracez?trace=<id>&format=text   waterfall of one trace
func TracezHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			WriteJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		q := req.URL.Query()
		asText := q.Get("format") == "text"
		if id := SanitizeTraceID(q.Get("trace")); q.Get("trace") != "" {
			legs := t.TraceByID(id)
			if len(legs) == 0 {
				// The response concerns the looked-up trace, so its ID is
				// the one the header and the error body carry.
				w.Header().Set(TraceHeader, id)
				WriteJSONError(w, http.StatusNotFound, "trace not found")
				return
			}
			if asText {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprint(w, RenderWaterfall(legs))
				return
			}
			WriteJSON(w, struct {
				TraceID string           `json:"trace_id"`
				Legs    []*TraceSnapshot `json:"legs"`
			}{TraceID: id, Legs: legs}, nil)
			return
		}
		if asText {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			snap := t.TracezSnap()
			fmt.Fprintf(w, "tracez: sampled=%d dropped=%d span_overflow=%d slow_threshold=%s capacity=%d max_spans=%d\n\n",
				snap.Sampled, snap.Dropped, snap.SpanOverflow,
				time.Duration(snap.SlowThresholdNS), snap.Capacity, snap.MaxSpans)
			// Group legs of one trace together even in the index view.
			seen := make(map[string]bool, len(snap.Traces))
			for _, ts := range snap.Traces {
				if seen[ts.TraceID] {
					continue
				}
				seen[ts.TraceID] = true
				fmt.Fprint(w, RenderWaterfall(t.TraceByID(ts.TraceID)))
				fmt.Fprintln(w)
			}
			return
		}
		WriteJSON(w, t.TracezSnap(), nil)
	})
}

// RenderWaterfall renders the legs of one trace as a plain-text
// waterfall: spans sorted into a parent/child tree, one line each, with
// a proportional duration bar against the whole trace's wall-clock
// window.
func RenderWaterfall(legs []*TraceSnapshot) string {
	if len(legs) == 0 {
		return ""
	}
	type node struct {
		span     SpanSnapshot
		children []*node
	}
	byID := make(map[string]*node)
	var all []*node
	for _, leg := range legs {
		for _, s := range leg.Spans {
			n := &node{span: s}
			byID[s.SpanID] = n
			all = append(all, n)
		}
	}
	var roots []*node
	for _, n := range all {
		if p, ok := byID[n.span.ParentID]; ok && p != n {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	startOf := func(n *node) int64 { return n.span.StartUnixNano }
	sortNodes := func(ns []*node) {
		sort.SliceStable(ns, func(i, j int) bool { return startOf(ns[i]) < startOf(ns[j]) })
	}
	sortNodes(roots)
	for _, n := range all {
		sortNodes(n.children)
	}
	// Wall-clock window of the whole merged trace.
	minStart, maxEnd := int64(0), int64(0)
	for i, n := range all {
		s := n.span.StartUnixNano
		e := s + n.span.DurationNS
		if i == 0 || s < minStart {
			minStart = s
		}
		if e > maxEnd {
			maxEnd = e
		}
	}
	window := maxEnd - minStart
	if window <= 0 {
		window = 1
	}
	const barWidth = 32
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s reason=%s legs=%d spans=%d window=%s\n",
		legs[0].TraceID, legs[len(legs)-1].Reason, len(legs), len(all),
		time.Duration(window))
	var render func(n *node, depth int)
	render = func(n *node, depth int) {
		s := n.span
		off := s.StartUnixNano - minStart
		lo := int(off * barWidth / window)
		ln := int(s.DurationNS * barWidth / window)
		if ln < 1 {
			ln = 1
		}
		if lo > barWidth-1 {
			lo = barWidth - 1
		}
		if lo+ln > barWidth {
			ln = barWidth - lo
		}
		bar := strings.Repeat(".", lo) + strings.Repeat("#", ln) +
			strings.Repeat(".", barWidth-lo-ln)
		line := fmt.Sprintf("%s%s", strings.Repeat("  ", depth), s.Name)
		for _, kv := range sortedAttrs(s.Attrs) {
			line += " " + kv
		}
		if s.Error != "" {
			line += fmt.Sprintf(" error=%q", s.Error)
		}
		status := fmt.Sprintf("%10s", time.Duration(s.DurationNS))
		if s.Unfinished {
			status = "  unfinished"
		}
		fmt.Fprintf(&b, "  [%s] %s %s\n", bar, status, line)
		for _, c := range n.children {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
	return b.String()
}

// sortedAttrs renders attrs as sorted "k=v" strings so waterfall
// output is deterministic.
func sortedAttrs(attrs map[string]string) []string {
	if len(attrs) == 0 {
		return nil
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k+"="+attrs[k])
	}
	return out
}
