package cluster

// The router's observability plane: an in-process sampler turning the
// router registry into time-series history, the fleet federation
// scrape (federation.go), and the SLO burn-rate engine evaluating the
// shipped objectives over that history. One loop drives all three on
// the SampleInterval cadence so /fleetz and /alertz always describe
// the same rounds.

import (
	"net/http"
	"strconv"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/eventlog"
	"hdmaps/internal/obs/incident"
	"hdmaps/internal/obs/notify"
	"hdmaps/internal/obs/slo"
	"hdmaps/internal/obs/timeseries"
	"hdmaps/internal/storage"
)

// shippedObjectives is the default SLO set: availability and latency
// of the read path, quorum assembly, ingest commit-gate pass rate
// (no-data unless an ingest service shares the router's registry), and
// anti-entropy sweep freshness when sweeping is enabled.
func (rt *Router) shippedObjectives() []slo.Objective {
	objs := []slo.Objective{
		{
			Name:           "slo.read.availability",
			Description:    "routed requests answered, not shed",
			BadSeries:      "cluster.router.shed",
			TotalSeries:    "cluster.router.routed",
			Target:         0.99,
			ExemplarSource: "cluster.router.latency_seconds",
		},
		{
			Name:           "slo.read.latency_p99",
			Description:    "p99 tile request latency under 500ms",
			ValueSeries:    "cluster.router.latency_seconds.p99",
			Bound:          0.5,
			Target:         0.9,
			ExemplarSource: "cluster.router.latency_seconds",
		},
		{
			Name:           "slo.read.quorum",
			Description:    "requests that assembled their quorum",
			BadSeries:      "cluster.read.quorum_failures",
			TotalSeries:    "cluster.router.routed",
			Target:         0.99,
			ExemplarSource: "cluster.router.latency_seconds",
		},
		{
			Name:        "slo.ingest.gate_pass",
			Description: "ingest commit-gate pass rate",
			BadSeries:   "ingest.gate.rejected",
			TotalSeries: "ingest.gate.checked",
			Target:      0.9,
		},
	}
	if iv := rt.cfg.SweepInterval; iv > 0 {
		objs = append(objs, slo.Objective{
			Name:        "slo.sweep.cadence",
			Description: "anti-entropy sweep freshness (age under 4 intervals)",
			ValueSeries: "cluster.antientropy.round_age_seconds",
			Bound:       (4 * iv).Seconds(),
			Target:      0.9,
		})
	}
	return objs
}

// buildObservability wires the sampler, federation, SLO engine, event
// journal, incident manager, and notifier into a freshly-constructed
// router. A non-positive resolved sample interval leaves the plane off
// (rt.sampler et al stay nil; /fleetz, /alertz, /eventz, and
// /incidentz answer 404).
func (rt *Router) buildObservability() error {
	iv := rt.cfg.SampleInterval
	if iv <= 0 {
		return nil
	}
	rt.sampler = timeseries.NewSampler(timeseries.Config{
		Registry: rt.reg,
		Interval: iv,
		Capacity: rt.cfg.SampleHistory,
	})
	rt.fleet = newFleet(rt, iv, rt.cfg.SampleHistory, rt.cfg.MaxFleetNodes)
	rt.aeAge = rt.reg.Gauge("cluster.antientropy.round_age_seconds")

	if rt.cfg.EventLog != nil {
		rt.journal = rt.cfg.EventLog
	} else {
		j, err := eventlog.New(eventlog.Config{
			Types:    eventlog.StandardTypes(),
			Capacity: rt.cfg.EventLogCapacity,
			Path:     rt.cfg.EventLogPath,
			Registry: rt.reg,
		})
		if err != nil {
			return err
		}
		rt.journal = j
		rt.ownJournal = true
	}
	rt.incidents = incident.New(incident.Config{
		Journal:  rt.journal,
		Window:   rt.cfg.IncidentWindow,
		Registry: rt.reg,
	})
	if len(rt.cfg.NotifySinks) > 0 {
		n, err := notify.New(notify.Config{
			Sinks:    rt.cfg.NotifySinks,
			MinHold:  rt.cfg.NotifyMinHold,
			Registry: rt.reg,
		})
		if err != nil {
			return err
		}
		rt.notifier = n
	}

	objs := rt.cfg.SLOObjectives
	if objs == nil {
		objs = rt.shippedObjectives()
	}
	eng, err := slo.New(slo.Config{
		Source:       rt.sampler.Store(),
		Objectives:   objs,
		FastWindow:   rt.cfg.SLOFastWindow,
		SlowWindow:   rt.cfg.SLOSlowWindow,
		Registry:     rt.reg,
		OnTransition: rt.onAlertTransition,
	})
	if err != nil {
		return err
	}
	rt.sloEng = eng
	return nil
}

// noteSweepRound stamps the completion time of an anti-entropy round;
// the observability loop turns it into the sweep-age gauge the
// slo.sweep.cadence objective watches.
func (rt *Router) noteSweepRound(now time.Time) {
	rt.lastSweep.Store(now.UnixMilli())
}

// obsLoop is the observability heartbeat: every SampleInterval it
// refreshes derived gauges, samples the router's own registry,
// federates the fleet, and re-evaluates the SLO engine. Runs on a
// tracked background goroutine; exits with the router.
func (rt *Router) obsLoop(iv time.Duration) {
	defer rt.bg.Done()
	rt.observeRound(time.Now()) // baseline round so the first interval has a predecessor
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case now := <-t.C:
			rt.observeRound(now)
		}
	}
}

// observeRound is one round of the plane — derived gauges, sample,
// federate, evaluate — under obsMu so the background loop and
// ObserveNow never sample concurrently.
func (rt *Router) observeRound(now time.Time) {
	rt.obsMu.Lock()
	defer rt.obsMu.Unlock()
	if last := rt.lastSweep.Load(); last > 0 {
		age := now.Sub(time.UnixMilli(last))
		if age < 0 {
			age = 0
		}
		rt.aeAge.Set(int64(age / time.Second))
	}
	rt.sampler.SampleNow(now)
	rt.fleet.scrapeRound(now)
	rt.sloEng.Evaluate()
}

// ObserveNow runs one observability round synchronously — sample,
// federate, evaluate — stamped at now. Tests and soaks call it to make
// alert transitions deterministic instead of sleeping out the
// interval. No-op when the plane is disabled.
func (rt *Router) ObserveNow(now time.Time) {
	if rt.sampler == nil {
		return
	}
	rt.observeRound(now)
}

// SLOAlerts reads the current alert set (nil when the plane is off).
func (rt *Router) SLOAlerts() []slo.Alert {
	if rt.sloEng == nil {
		return nil
	}
	return rt.sloEng.Alerts()
}

// maxFleetPoints bounds ?points=: no ring is anywhere near this deep,
// so anything beyond it is a garbage cursor, not a request for more
// history.
const maxFleetPoints = 1 << 20

// handleFleetz serves the federated fleet document. ?points=N bounds
// the per-series history (default 30, 0 = full ring). Non-numeric,
// negative, or absurd values are 400 JSON errors — never silently
// coerced.
func (rt *Router) handleFleetz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		obs.WriteJSONError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	points := 30
	if v := r.URL.Query().Get("points"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > maxFleetPoints {
			obs.WriteJSONError(w, http.StatusBadRequest,
				"bad points: want an integer in [0, 2^20], got "+strconv.Quote(v))
			return
		}
		points = n
	}
	storage.WriteJSON(w, rt.FleetStatus(points))
}
