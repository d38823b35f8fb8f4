package cluster

// The router's half of the active observability plane: a shared event
// journal fed from the points that already bump counters (failure
// detector transitions, membership changes, sweep rounds, hint
// drains), an incident manager minting timelines from alert
// transitions, and a notifier pushing those transitions to operator
// sinks. All three ride the same plane switch as the sampler: a
// negative SampleInterval disables everything and /eventz, /incidentz
// answer 404.

import (
	"fmt"

	"hdmaps/internal/obs/eventlog"
	"hdmaps/internal/obs/incident"
	"hdmaps/internal/obs/notify"
	"hdmaps/internal/obs/slo"
)

// event appends one entry to the journal; a no-op when the plane is
// disabled, so emission points never need their own guard.
func (rt *Router) event(typ, node, detail, traceID string) {
	if rt.journal != nil {
		rt.journal.Append(typ, node, detail, traceID)
	}
}

// EventLog exposes the router's journal (nil when the plane is off) —
// soaks assert against it and embedding processes (ingest, resilience)
// share it as their event sink.
func (rt *Router) EventLog() *eventlog.Log { return rt.journal }

// Incidents exposes the incident manager (nil when the plane is off).
func (rt *Router) Incidents() *incident.Manager { return rt.incidents }

// Notifier exposes the notifier (nil unless NotifySinks were
// configured) — soaks assert its ledger balances.
func (rt *Router) Notifier() *notify.Notifier { return rt.notifier }

// alertEventType maps an alert's target state to its journal event
// type.
func alertEventType(s slo.State) string {
	switch s {
	case slo.StateWarning:
		return eventlog.TypeAlertWarning
	case slo.StateCritical:
		return eventlog.TypeAlertCritical
	default:
		return eventlog.TypeAlertOK
	}
}

// onAlertTransition is the engine's OnTransition hook: journal first
// (so a closing incident's snapshot includes its own recovery edge),
// then the incident lifecycle, then the push fan-out.
func (rt *Router) onAlertTransition(tr slo.Transition) {
	detail := fmt.Sprintf("%s: %s -> %s (burn fast %.2f slow %.2f)",
		tr.Objective, tr.From, tr.To, tr.Alert.BurnFast, tr.Alert.BurnSlow)
	rt.event(alertEventType(tr.To), "", detail, tr.Alert.ExemplarTraceID)
	if rt.incidents != nil {
		rt.incidents.OnTransition(tr)
	}
	if rt.notifier != nil {
		rt.notifier.Notify(notify.Notification{
			Objective:       tr.Objective,
			Description:     tr.Description,
			From:            tr.From.String(),
			To:              tr.To.String(),
			At:              tr.At,
			BurnFast:        tr.Alert.BurnFast,
			BurnSlow:        tr.Alert.BurnSlow,
			ExemplarTraceID: tr.Alert.ExemplarTraceID,
		})
	}
}
