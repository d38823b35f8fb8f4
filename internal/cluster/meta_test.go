package cluster

import (
	"encoding/json"
	"net/http"
	"testing"

	"hdmaps/internal/resilience"
	"hdmaps/internal/storage"
)

// TestMetaEndpointsJSON: every meta endpoint of the router and of a
// node's overload pipeline answers JSON, errors included — a rejected
// method, a bad query or an unknown trace gets its usual status with an
// application/json body carrying an "error" field, never plain text.
func TestMetaEndpointsJSON(t *testing.T) {
	rt, _ := newTestCluster(t, 1, Config{})
	node := resilience.NewHandler(storage.NewTileServer(storage.NewMemStore()), resilience.Config{})
	cases := []struct {
		name         string
		h            http.Handler
		method, path string
		status       int
	}{
		{"router statz", rt, "GET", "/statz", 200},
		{"router metricz", rt, "GET", "/metricz", 200},
		{"router metricz method", rt, "POST", "/metricz", 405},
		{"router tracez", rt, "GET", "/tracez", 200},
		{"router tracez method", rt, "POST", "/tracez", 405},
		{"router tracez unknown trace", rt, "GET", "/tracez?trace=absent", 404},
		{"router alertz", rt, "GET", "/alertz", 200},
		{"router alertz method", rt, "POST", "/alertz", 405},
		{"router eventz", rt, "GET", "/eventz", 200},
		{"router eventz method", rt, "POST", "/eventz", 405},
		{"router eventz bad since", rt, "GET", "/eventz?since=-1", 400},
		{"router eventz bad type", rt, "GET", "/eventz?type=bogus", 400},
		{"router eventz bad max", rt, "GET", "/eventz?max=x", 400},
		{"router incidentz", rt, "GET", "/incidentz", 200},
		{"router incidentz method", rt, "POST", "/incidentz", 405},
		{"router incidentz bad state", rt, "GET", "/incidentz?state=bogus", 400},
		{"node statz", node, "GET", "/statz", 200},
		{"node metricz", node, "GET", "/metricz", 200},
		{"node metricz method", node, "POST", "/metricz", 405},
		{"node tracez", node, "GET", "/tracez", 200},
		{"node tracez method", node, "POST", "/tracez", 405},
		{"node tracez unknown trace", node, "GET", "/tracez?trace=absent", 404},
	}
	for _, tc := range cases {
		w := do(t, tc.h, tc.method, tc.path, nil, nil)
		if w.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, w.Code, tc.status)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.name, ct)
		}
		var body map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Errorf("%s: body is not a JSON object: %v (%q)", tc.name, err, w.Body.String())
			continue
		}
		if msg, _ := body["error"].(string); (tc.status >= 400) != (msg != "") {
			t.Errorf("%s: status %d with error field %q", tc.name, tc.status, msg)
		}
	}
}
