package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"hdmaps/internal/obs/eventlog"
)

// member is the router's view of one node: its identity plus the
// failure detector's state. A node is marked down after FailAfter
// consecutive strikes (failed probes or in-band transport errors) and
// up again on the first successful probe — the up transition is what
// triggers hinted-handoff drain.
type member struct {
	node Node

	mu        sync.Mutex
	alive     bool
	strikes   int
	lastErr   string
	lastProbe time.Time
	// draining guards against overlapping hint drains for this target.
	draining bool
}

// Alive reports whether the failure detector currently believes the
// node is reachable.
func (m *member) Alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive
}

// strike records one failure; after threshold consecutive strikes the
// node is marked down. Returns true on the down transition.
func (m *member) strike(threshold int, errMsg string) (wentDown bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.strikes++
	m.lastErr = errMsg
	if m.alive && m.strikes >= threshold {
		m.alive = false
		return true
	}
	return false
}

// markUp clears the strike count; returns true on the up transition.
func (m *member) markUp() (wentUp bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.strikes = 0
	m.lastErr = ""
	if !m.alive {
		m.alive = true
		return true
	}
	return false
}

// beginDrain claims the drain slot for this target; false when a drain
// is already running.
func (m *member) beginDrain() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return false
	}
	m.draining = true
	return true
}

func (m *member) endDrain() {
	m.mu.Lock()
	m.draining = false
	m.mu.Unlock()
}

// MemberStatus is one node's health as reported on /clusterz.
type MemberStatus struct {
	Name      string    `json:"name"`
	Base      string    `json:"base"`
	Alive     bool      `json:"alive"`
	Strikes   int       `json:"strikes"`
	LastError string    `json:"last_error,omitempty"`
	LastProbe time.Time `json:"last_probe,omitempty"`
}

func (m *member) status() MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemberStatus{
		Name:      m.node.Name,
		Base:      m.node.Base,
		Alive:     m.alive,
		Strikes:   m.strikes,
		LastError: m.lastErr,
		LastProbe: m.lastProbe,
	}
}

// probe checks one node's /healthz. It feeds the same strike/markUp
// state machine as in-band failures, so a node that answers probes but
// refuses traffic still goes down after FailAfter in-band strikes.
func (rt *Router) probe(m *member) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.node.Base+"/healthz", nil)
	if err != nil {
		rt.noteFailure(m, err.Error())
		return
	}
	resp, err := rt.httpc.Do(req)
	m.mu.Lock()
	m.lastProbe = time.Now()
	m.mu.Unlock()
	if err != nil {
		rt.noteFailure(m, err.Error())
		return
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rt.noteFailure(m, "healthz "+resp.Status)
		return
	}
	rt.noteSuccess(m)
}

// probeLoop is the router's failure detector: every ProbeInterval it
// probes all members concurrently, and re-triggers hint drain for any
// live node that still has parked writes (a drain interrupted by a
// flap resumes here).
func (rt *Router) probeLoop() {
	defer rt.bg.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
		}
		ms := rt.memberList()
		var wg sync.WaitGroup
		for _, m := range ms {
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				rt.probe(m)
			}(m)
		}
		wg.Wait()
		for _, m := range ms {
			if m.Alive() && rt.hints.pendingFor(m.node.Name) > 0 {
				rt.startDrainHints(m)
			}
		}
	}
}

// noteFailure records an in-band or probe failure against a node.
func (rt *Router) noteFailure(m *member, errMsg string) {
	if m.strike(rt.cfg.FailAfter, errMsg) {
		rt.log.Warn("node down", "node", m.node.Name, "error", errMsg)
		rt.event(eventlog.TypeNodeDead, m.node.Name, errMsg, "")
	}
}

// noteSuccess records a successful probe; an up transition kicks off
// hinted-handoff drain for everything the node missed while dead.
func (rt *Router) noteSuccess(m *member) {
	if m.markUp() {
		rt.log.Warn("node up", "node", m.node.Name)
		rt.event(eventlog.TypeNodeRevived, m.node.Name, "", "")
		rt.startDrainHints(m)
	}
}
