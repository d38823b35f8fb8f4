package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"net/http"
	"sort"
	"sync"
)

// RegistrySnapshot is one consistent-enough read of a whole registry —
// the /metricz payload. Each cell is individually atomic; cross-metric
// invariants (e.g. submitted == accepted + shed + errored) hold exactly
// once the instrumented system is quiescent.
type RegistrySnapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot reads every metric in the registry.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := RegistrySnapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// MarshalJSON renders the snapshot with every metric family and series
// key in sorted order, so two scrapes of an idle server are
// byte-identical and diffable. The guarantee is explicit here rather
// than inherited from encoding/json's map behaviour, so tooling can
// rely on it even if the maps are ever replaced by a faster container.
func (s RegistrySnapshot) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	b.WriteString(`"counters":`)
	if err := marshalSorted(&b, s.Counters); err != nil {
		return nil, err
	}
	b.WriteString(`,"gauges":`)
	if err := marshalSorted(&b, s.Gauges); err != nil {
		return nil, err
	}
	b.WriteString(`,"histograms":`)
	if err := marshalSorted(&b, s.Histograms); err != nil {
		return nil, err
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// marshalSorted writes m as a JSON object with keys in ascending order.
func marshalSorted[V any](b *bytes.Buffer, m map[string]V) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return err
		}
		b.Write(kb)
		b.WriteByte(':')
		vb, err := json.Marshal(m[k])
		if err != nil {
			return err
		}
		b.Write(vb)
	}
	b.WriteByte('}')
	return nil
}

// MetricsHandler serves the registry as JSON — mount it at /metricz.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			WriteJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		WriteJSON(w, r.Snapshot(), nil)
	})
}

// expvarMu serializes PublishExpvar against itself; expvar.Publish
// panics on duplicate names, so publishing must be check-then-set.
var expvarMu sync.Mutex

// PublishExpvar bridges the registry into the stdlib expvar namespace
// under the given name, so any tooling that already scrapes
// /debug/vars picks the metrics up for free. Idempotent per name
// (first binding wins — expvar has no unpublish); callers normally
// pass the process-wide Default() registry, for which first-wins is
// exactly right.
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
