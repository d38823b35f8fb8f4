// Package incident turns raw alert transitions into operator-facing
// incident timelines: one incident is minted when an objective leaves
// ok, escalates as the alert arc worsens, and closes on recovery. Each
// incident bundles the full transition arc, the journal events that
// overlap its causal window (a look-back before the alert tripped plus
// everything until it cleared — the kill that caused the page and the
// revival that ended it), and the freshest exemplar trace seen on the
// arc. The result is served as /incidentz and rendered by `hdmapctl
// incidents`: the answer to "what happened last night", assembled at
// transition time instead of by an operator grepping logs.
package incident

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/eventlog"
	"hdmaps/internal/obs/slo"
)

// Incident states.
const (
	// StateOpen: the objective is degraded and the timeline is still
	// accumulating.
	StateOpen = "open"
	// StateResolved: the objective recovered; the timeline is frozen.
	StateResolved = "resolved"
)

// ArcStep is one alert transition inside an incident.
type ArcStep struct {
	At       time.Time `json:"at"`
	From     string    `json:"from"`
	To       string    `json:"to"`
	BurnFast float64   `json:"burn_fast"`
	BurnSlow float64   `json:"burn_slow"`
	TraceID  string    `json:"trace_id,omitempty"`
}

// Incident is one objective's excursion from ok, open or resolved.
type Incident struct {
	ID          string `json:"id"`
	Objective   string `json:"objective"`
	Description string `json:"description,omitempty"`
	// State is StateOpen or StateResolved.
	State string `json:"state"`
	// Severity is the worst alert state reached ("warning"/"critical").
	Severity   string    `json:"severity"`
	OpenedAt   time.Time `json:"opened_at"`
	ResolvedAt time.Time `json:"resolved_at,omitempty"`
	// Arc is the alert's transition history inside the incident,
	// including the closing recovery edge once resolved.
	Arc []ArcStep `json:"arc"`
	// ExemplarTraceID is the freshest non-empty trace on the arc.
	ExemplarTraceID string `json:"exemplar_trace_id,omitempty"`
	// Events are the journal entries in the causal window
	// [OpenedAt-Window, ResolvedAt] (open incidents: up to now).
	Events []eventlog.Event `json:"events,omitempty"`
}

// Config configures a Manager.
type Config struct {
	// Journal, when set, supplies the event timelines.
	Journal *eventlog.Log
	// Window is the causal look-back before an incident opens
	// (default 2m): the node kill precedes the burn-rate trip by at
	// least the sampling cadence, so the timeline must reach back.
	Window time.Duration
	// MaxResolved bounds the resolved-incident ring (default 64).
	MaxResolved int
	// MaxArc bounds one incident's recorded transitions (default 64);
	// a flapping alert keeps the newest steps.
	MaxArc int
	// MaxEvents bounds one incident's event timeline (default 256).
	MaxEvents int
	// Registry receives manager self-metrics (default obs.Default()).
	Registry *obs.Registry
	// Now overrides the clock (tests).
	Now func() time.Time
}

// withDefaults resolves every zero knob to its documented default,
// once, at construction.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 2 * time.Minute
	}
	if c.MaxResolved <= 0 {
		c.MaxResolved = 64
	}
	if c.MaxArc <= 0 {
		c.MaxArc = 64
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 256
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Manager holds the open-incident table and the resolved ring. Safe
// for concurrent use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	seq      uint64
	open     map[string]*Incident // by objective
	resolved []Incident           // oldest first, bounded

	openedC   *obs.Counter
	resolvedC *obs.Counter
	openGauge *obs.Gauge
}

// New builds a manager.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	return &Manager{
		cfg:       cfg,
		open:      make(map[string]*Incident),
		openedC:   reg.Counter("incident.manager.opened"),
		resolvedC: reg.Counter("incident.manager.resolved"),
		openGauge: reg.Gauge("incident.manager.open"),
	}
}

// severityRank orders alert states for the worst-state-reached field.
func severityRank(s string) int {
	switch s {
	case "critical":
		return 2
	case "warning":
		return 1
	}
	return 0
}

// OnTransition feeds one alert state change into the lifecycle —
// wire it to slo.Config.OnTransition (directly or fanned out).
func (m *Manager) OnTransition(tr slo.Transition) {
	step := ArcStep{
		At:       tr.At,
		From:     tr.From.String(),
		To:       tr.To.String(),
		BurnFast: tr.Alert.BurnFast,
		BurnSlow: tr.Alert.BurnSlow,
		TraceID:  tr.Alert.ExemplarTraceID,
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	inc, isOpen := m.open[tr.Objective]
	switch {
	case tr.To != slo.StateOK && !isOpen:
		m.seq++
		inc = &Incident{
			ID:          fmt.Sprintf("inc-%d", m.seq),
			Objective:   tr.Objective,
			Description: tr.Description,
			State:       StateOpen,
			Severity:    tr.To.String(),
			OpenedAt:    tr.At,
			Arc:         []ArcStep{step},
		}
		inc.ExemplarTraceID = freshestTrace(inc.Arc)
		m.open[tr.Objective] = inc
		m.openedC.Inc()
		m.openGauge.Set(int64(len(m.open)))
	case isOpen:
		inc.Arc = append(inc.Arc, step)
		if max := m.cfg.MaxArc; len(inc.Arc) > max {
			inc.Arc = inc.Arc[len(inc.Arc)-max:]
		}
		if severityRank(tr.To.String()) > severityRank(inc.Severity) {
			inc.Severity = tr.To.String()
		}
		if t := freshestTrace(inc.Arc); t != "" {
			inc.ExemplarTraceID = t
		}
		if tr.To == slo.StateOK {
			inc.State = StateResolved
			inc.ResolvedAt = tr.At
			m.finalize(inc)
			delete(m.open, tr.Objective)
			m.resolved = append(m.resolved, *inc)
			if max := m.cfg.MaxResolved; len(m.resolved) > max {
				m.resolved = m.resolved[len(m.resolved)-max:]
			}
			m.resolvedC.Inc()
			m.openGauge.Set(int64(len(m.open)))
		}
	default:
		// A recovery with no open incident: the engine started non-ok
		// before the manager was attached. Nothing to close.
	}
}

// freshestTrace returns the newest non-empty trace ID on an arc.
func freshestTrace(arc []ArcStep) string {
	for i := len(arc) - 1; i >= 0; i-- {
		if arc[i].TraceID != "" {
			return arc[i].TraceID
		}
	}
	return ""
}

// finalize snapshots the event timeline of a closing incident. Caller
// holds m.mu.
func (m *Manager) finalize(inc *Incident) {
	if m.cfg.Journal == nil {
		return
	}
	inc.Events = m.cfg.Journal.Between(inc.OpenedAt.Add(-m.cfg.Window), inc.ResolvedAt, m.cfg.MaxEvents)
}

// Incidents returns open incidents (newest first) followed by resolved
// ones (newest first). Open incidents carry a live event timeline up
// to now.
func (m *Manager) Incidents() []Incident {
	now := m.cfg.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Incident, 0, len(m.open)+len(m.resolved))
	for _, inc := range m.open {
		c := *inc
		c.Arc = append([]ArcStep(nil), inc.Arc...)
		if m.cfg.Journal != nil {
			c.Events = m.cfg.Journal.Between(c.OpenedAt.Add(-m.cfg.Window), now, m.cfg.MaxEvents)
		}
		out = append(out, c)
	}
	// Newest open first; the map holds at most one per objective so
	// insertion order is lost — sort by OpenedAt.
	sortIncidents(out)
	for i := len(m.resolved) - 1; i >= 0; i-- {
		out = append(out, m.resolved[i])
	}
	return out
}

// sortIncidents orders by OpenedAt descending (insertion sort: the
// slice is at most the number of objectives).
func sortIncidents(s []Incident) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].OpenedAt.After(s[j-1].OpenedAt); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Counts reports (open, resolved-retained) sizes.
func (m *Manager) Counts() (open, resolved int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.open), len(m.resolved)
}

// Status is the /incidentz document.
type Status struct {
	GeneratedAt time.Time  `json:"generated_at"`
	Open        int        `json:"open"`
	Resolved    int        `json:"resolved"`
	Incidents   []Incident `json:"incidents"`
}

// Handler serves the incident table as /incidentz?state=. An unknown
// state filter is a 400 JSON error, not an empty result.
func Handler(m *Manager) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			obs.WriteJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		state := r.URL.Query().Get("state")
		if state != "" && state != StateOpen && state != StateResolved {
			obs.WriteJSONError(w, http.StatusBadRequest, "bad state: want open or resolved, got "+strconv.Quote(state))
			return
		}
		all := m.Incidents()
		list := all
		if state != "" {
			list = make([]Incident, 0, len(all))
			for _, inc := range all {
				if inc.State == state {
					list = append(list, inc)
				}
			}
		}
		nOpen, nResolved := m.Counts()
		doc := Status{GeneratedAt: m.cfg.Now(), Open: nOpen, Resolved: nResolved, Incidents: list}
		obs.WriteJSON(w, doc, nil)
	})
}
