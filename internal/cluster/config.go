package cluster

import (
	"log/slog"
	"net/http"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/eventlog"
	"hdmaps/internal/obs/notify"
	"hdmaps/internal/obs/slo"
)

// Node identifies one tile-server backend: a stable name (the ring
// identity, also the metric label) and its HTTP base URL.
type Node struct {
	Name string
	Base string
}

// Config configures a Router. Zero fields take the defaults documented
// on each field; NewRouter resolves them once (withDefaults).
type Config struct {
	// Nodes is the initial membership. Names must be unique, non-empty,
	// and valid metric label values ([a-z0-9_]+).
	Nodes []Node
	// Replicas is the owner-set size R per tile (default 3, clamped to
	// the member count).
	Replicas int
	// ReadQuorum / WriteQuorum are the answers required before a read
	// responds or a write acks (default R/2+1 each). A write quorum is
	// sloppy: a hint successfully parked for a dead owner counts.
	ReadQuorum  int
	WriteQuorum int
	// VNodes is the virtual-node count per member (default
	// DefaultVNodes).
	VNodes int
	// ShardTimeout bounds each per-node leg request (default 5s).
	ShardTimeout time.Duration
	// RetryAfter is the hint on shed (503) responses (default 1s).
	RetryAfter time.Duration
	// ProbeInterval / ProbeTimeout drive the failure detector (defaults
	// 250ms / 1s). FailAfter is the consecutive-strike threshold that
	// marks a node down (default 2).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	FailAfter     int
	// MaxHints bounds the in-memory hinted-handoff buffer (default
	// 4096 hints); MaxRepairQueue bounds the read-repair queue (default
	// 256).
	MaxHints       int
	MaxRepairQueue int
	// MaxTileBytes bounds accepted PUT bodies (default 16 MiB, matching
	// storage.TileServer).
	MaxTileBytes int64
	// SweepInterval is the anti-entropy sweep cadence (default 30s;
	// negative disables background sweeping — SweepNow still works).
	SweepInterval time.Duration
	// TombstoneTTL is the minimum deletion-marker age before GC may
	// reclaim it (default 24h). It must exceed the hint-drain/repair
	// horizon — see the GC safety argument in DESIGN.md §11.
	TombstoneTTL time.Duration
	// SampleInterval is the observability-plane cadence: registry
	// sampling, fleet federation scrapes, and SLO evaluation all run on
	// this tick (default 5s; negative disables the whole plane —
	// /fleetz and /alertz answer 404).
	SampleInterval time.Duration
	// SampleHistory is the ring capacity of every time series, in ticks
	// (default 360 — half an hour at the default interval).
	SampleHistory int
	// MaxFleetNodes bounds the per-node series cardinality in the
	// federated view; nodes beyond it collapse into one reserved
	// "other" pseudo-node (default 16).
	MaxFleetNodes int
	// SLOFastWindow / SLOSlowWindow are the burn-rate windows (defaults
	// 5m / 1h, resolved by the SLO engine). SLOObjectives overrides the
	// shipped objective set when non-nil.
	SLOFastWindow time.Duration
	SLOSlowWindow time.Duration
	SLOObjectives []slo.Objective
	// EventLog, when set, is the shared journal the router emits
	// lifecycle events into (embedding processes pass the same journal
	// to ingest/resilience so /eventz is one cluster-wide timeline).
	// When nil and the plane is enabled, the router builds a private
	// journal over the full standard domain — durable at EventLogPath
	// if that is set, memory-only otherwise. EventLogCapacity bounds
	// the ring (default 1024).
	EventLog         *eventlog.Log
	EventLogPath     string
	EventLogCapacity int
	// NotifySinks, when non-empty, enables push alerting: every alert
	// transition fans out to each sink with retry, dedup, and flap
	// damping (NotifyMinHold, default 1m — see notify.Config.MinHold).
	NotifySinks   []notify.Sink
	NotifyMinHold time.Duration
	// IncidentWindow is the causal look-back for incident timelines
	// (default 2m — see incident.Config.Window).
	IncidentWindow time.Duration
	// Transport, when set, is used for all node requests — the chaos
	// tests inject per-host fault transports here.
	Transport http.RoundTripper
	// Registry receives the router's counters (default: a private
	// registry). Tracer receives request spans (default: a tracer with
	// Metrics on the same registry). Logger defaults to a no-op.
	Registry *obs.Registry
	Tracer   *obs.Tracer
	Logger   *slog.Logger
}

// withDefaults resolves every zero field the router reads directly to
// its documented default. A negative SweepInterval or SampleInterval
// is kept: it disables its loop. Fields resolved by the packages they
// configure (VNodes, the SLO, journal, notify and incident knobs) and
// the membership-dependent quorums are left as given.
func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.MaxHints <= 0 {
		c.MaxHints = 4096
	}
	if c.MaxRepairQueue <= 0 {
		c.MaxRepairQueue = 256
	}
	if c.MaxTileBytes <= 0 {
		c.MaxTileBytes = 16 << 20
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 30 * time.Second
	}
	if c.TombstoneTTL <= 0 {
		c.TombstoneTTL = 24 * time.Hour
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 5 * time.Second
	}
	if c.SampleHistory <= 0 {
		c.SampleHistory = 360
	}
	if c.MaxFleetNodes <= 0 {
		c.MaxFleetNodes = 16
	}
	return c
}

// replicasFor clamps the configured replication factor to the given
// membership size. Callers pass *current* membership, not the initial
// cfg.Nodes list: a cluster started below its target factor regains
// the full factor (and the quorums derived from it) as AddNode grows
// the ring.
func (c *Config) replicasFor(members int) int {
	return min(c.Replicas, members)
}

func (c *Config) readQuorumFor(replicas int) int {
	if c.ReadQuorum > 0 {
		return c.ReadQuorum
	}
	return replicas/2 + 1
}

func (c *Config) writeQuorumFor(replicas int) int {
	if c.WriteQuorum > 0 {
		return c.WriteQuorum
	}
	return replicas/2 + 1
}
