package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"sort"

	"hdmaps/internal/obs"
	"hdmaps/internal/obs/eventlog"
	"hdmaps/internal/storage"
)

// queueHint parks a write its owner missed: indexed in the router's
// bounded buffer, plus a durable copy on the first live fallback node
// under a hint-- layer. Returns false when the buffer is full — that
// leg is then simply failed, never silently dropped.
func (rt *Router) queueHint(ctx context.Context, trace string, span *obs.Span, h *hint, owners []*member) bool {
	if fb := rt.fallbackFor(h.Key, owners); fb != nil {
		hk := storage.TileKey{Layer: hintLayer(h.Target, h.Key.Layer), TX: h.Key.TX, TY: h.Key.TY}
		_, err := oneLeg(rt, ctx, span, "shard.hint", fb, func(ctx context.Context, leg *obs.Span, m *member) (struct{}, error) {
			leg.SetAttr("target", h.Target)
			return struct{}{}, rt.shardPut(ctx, trace, leg, m, hk, h.Data, h.Sum, "")
		})
		if err == nil {
			h.Fallback = fb.node.Name
		}
	}
	switch rt.hints.add(h) {
	case hintAdded:
		rt.stats.hintsQueued.Inc()
	case hintReplaced:
		// The superseded hint will never replay — its write is subsumed
		// by this newer one. Counted so queued == drained + superseded +
		// dropped + pending stays exact.
		rt.stats.hintsQueued.Inc()
		rt.stats.hintsSuperseded.Inc()
	case hintFull:
		rt.stats.hintsDropped.Inc()
		return false
	}
	rt.stats.shardHinted.With(h.Target).Inc()
	return true
}

// startDrainHints replays everything a recovered node missed. One
// drain per target at a time; the probe loop re-triggers if hints
// remain (drain aborted by a re-kill) or arrive later.
func (rt *Router) startDrainHints(m *member) {
	if !m.beginDrain() {
		return
	}
	if !rt.goBG(func() {
		defer m.endDrain()
		rt.drainHints(m)
	}) {
		m.endDrain()
	}
}

func (rt *Router) drainHints(m *member) {
	batch := rt.hints.take(m.node.Name)
	if len(batch) == 0 {
		return
	}
	// Deterministic replay order for debuggability.
	sort.Slice(batch, func(i, j int) bool { return keyLess(batch[i].Key, batch[j].Key) })
	rt.log.Warn("draining hints", "node", m.node.Name, "count", len(batch))
	for i, h := range batch {
		select {
		case <-rt.stop:
			rt.restoreHints(batch[i:])
			return
		default:
		}
		if err := rt.replayHint(m, h); err != nil {
			// Target likely died again: put the rest back and let the
			// next up-transition resume.
			rt.log.Warn("hint replay failed", "node", m.node.Name, "error", err.Error())
			rt.restoreHints(batch[i:])
			return
		}
		rt.stats.hintsDrained.Inc()
		rt.stats.shardDrained.With(m.node.Name).Inc()
	}
	rt.log.Warn("hints drained", "node", m.node.Name, "count", len(batch))
	rt.event(eventlog.TypeHintDrain, m.node.Name, fmt.Sprintf("%d hints replayed", len(batch)), "")
}

// replayHint delivers one parked write to its recovered owner, unless
// the owner already has something fresher (a read-repair or a direct
// write got there first). On success the durable fallback copy is
// deleted best-effort.
func (rt *Router) replayHint(m *member, h *hint) error {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ShardTimeout)
	defer cancel()
	_, span := rt.tracer.StartSpan(ctx, "cluster.handoff")
	span.SetAttr("node", m.node.Name)
	span.SetAttr("layer", h.Key.Layer)
	defer span.End()
	trace := span.TraceID()
	if h.Tomb {
		// Tombstone markers carry their own ordering: the shard accepts,
		// no-ops (older than existing marker), or rejects with 409 (a
		// fresher live tile landed) — all of which complete the hint.
		if err := rt.shardPut(ctx, trace, span, m, h.Key, h.Data, h.Sum, ""); err != nil && !errors.Is(err, errSuperseded) {
			span.Fail(err.Error())
			return err
		}
	} else {
		cur := rt.shardGet(ctx, trace, span, m, h.Key)
		if !cur.ok && !cur.integrity {
			span.Fail(cur.err.Error())
			return cur.err
		}
		if (!cur.found && !cur.tomb) || storage.FresherState(false, h.Clock, h.Data, cur.tomb, cur.clock, cur.data) {
			if err := rt.shardPut(ctx, trace, span, m, h.Key, h.Data, h.Sum, ""); err != nil && !errors.Is(err, errSuperseded) {
				span.Fail(err.Error())
				return err
			}
		}
	}
	if h.Fallback != "" {
		rt.mu.RLock()
		fb := rt.members[h.Fallback]
		rt.mu.RUnlock()
		if fb != nil {
			hk := storage.TileKey{Layer: hintLayer(h.Target, h.Key.Layer), TX: h.Key.TX, TY: h.Key.TY}
			_ = rt.shardDelete(ctx, trace, span, fb, hk, "")
		}
	}
	return nil
}

// restoreHints puts an unfinished drain batch back without recounting
// it as queued; a hint that raced a newer write for the same key is
// dropped as superseded.
func (rt *Router) restoreHints(batch []*hint) {
	for _, h := range batch {
		switch rt.hints.restore(h) {
		case hintAdded:
		case hintReplaced:
			rt.stats.hintsSuperseded.Inc()
		case hintFull:
			rt.stats.hintsDropped.Inc()
		}
	}
}

// recoverDurableHints rebuilds the in-memory hint buffer from payloads
// parked on fallback nodes' disks under hint-- layers. A fresh router
// over the same nodes (crash restart, failover) runs this once on
// Start, so parked writes — and parked deletes — survive the router
// process. Unreachable fallbacks are skipped; the sweeper converges
// whatever recovery misses.
func (rt *Router) recoverDurableHints() {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ShardTimeout*4)
	defer cancel()
	_, span := rt.tracer.StartSpan(ctx, "cluster.hint_recovery")
	defer span.End()
	trace := span.TraceID()
	recovered := 0
	for _, fb := range rt.memberList() {
		if !fb.Alive() {
			continue
		}
		var layers []string
		if _, err := oneLeg(rt, ctx, span, "shard.layers", fb, rt.jsonLeg(trace, "/v1/layers", &layers)); err != nil {
			continue
		}
		for _, hl := range layers {
			target, origLayer, ok := parseHintLayer(hl)
			if !ok {
				continue
			}
			var keys []tileEntry
			if _, err := oneLeg(rt, ctx, span, "shard.list", fb, rt.jsonLeg(trace, "/v1/tiles/"+url.PathEscape(hl), &keys)); err != nil {
				continue
			}
			for _, e := range keys {
				hk := storage.TileKey{Layer: hl, TX: e.TX, TY: e.TY}
				res, _ := oneLeg(rt, ctx, span, "shard.read", fb, rt.readLeg(trace, hk))
				if !res.ok || (!res.found && !res.tomb) {
					continue
				}
				h := &hint{
					Target:   target,
					Fallback: fb.node.Name,
					Key:      storage.TileKey{Layer: origLayer, TX: e.TX, TY: e.TY},
					Data:     res.data,
					Tomb:     res.tomb,
					Clock:    res.clock,
					Sum:      res.sum,
				}
				if rt.hints.restore(h) == hintAdded {
					rt.stats.hintsQueued.Inc()
					rt.stats.hintsRecovered.Inc()
					rt.stats.shardHinted.With(target).Inc()
					recovered++
				}
			}
		}
	}
	if recovered > 0 {
		rt.log.Warn("recovered durable hints", "count", recovered)
	}
}
