package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
)

func (rt *Router) handleTilePut(w http.ResponseWriter, r *http.Request, span *obs.Span, key storage.TileKey) {
	rt.stats.writes.Inc()
	limit := rt.cfg.MaxTileBytes
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		rt.clientError(w, http.StatusBadRequest, err.Error())
		return
	}
	if int64(len(data)) > limit {
		rt.clientError(w, http.StatusRequestEntityTooLarge, "tile too large")
		return
	}
	sum := storage.Checksum(data)
	if want := r.Header.Get(storage.ChecksumHeader); want != "" && want != sum {
		w.Header().Set(storage.TransientHeader, "checksum-mismatch")
		rt.clientError(w, http.StatusBadRequest,
			fmt.Sprintf("checksum mismatch: got %s want %s", sum, want))
		return
	}
	clock, err := storage.PeekClock(data)
	if err != nil {
		// The router refuses what every node would refuse, without
		// burning R legs on it.
		rt.clientError(w, http.StatusUnprocessableEntity, "invalid tile: "+err.Error())
		return
	}
	owners := rt.ownersFor(key)
	if len(owners) == 0 {
		rt.internalError(w, span, "no owners for key")
		return
	}
	rt.replicate(w, r, span, key, owners, data, sum, clock, nil)
}

// handleTileDelete makes a delete as durable as a write: instead of
// issuing bare DELETEs (which a dead owner would simply miss), the
// router writes a tombstone marker to every owner. The marker's clock
// dominates every version observable on live owners, so replays of
// erased writes lose to it; dead owners get durable tombstone hints
// parked on a fallback node's disk, so the delete survives even a
// router crash while the owner is down.
func (rt *Router) handleTileDelete(w http.ResponseWriter, r *http.Request, span *obs.Span, key storage.TileKey) {
	rt.stats.writes.Inc()
	owners := rt.ownersFor(key)
	if len(owners) == 0 {
		rt.internalError(w, span, "no owners for key")
		return
	}

	// Phase 1: observe the highest clock among reachable owners, so the
	// marker is stamped above everything the delete must erase.
	live, _ := splitAlive(owners)
	probes := fanOut(rt, r.Context(), span, "shard.read", live, rt.readLeg(obs.TraceID(r.Context()), key))
	var maxClock uint64
	okProbes := 0
	for range live {
		res := (<-probes).v
		if !res.ok {
			continue
		}
		okProbes++
		if (res.found || res.tomb) && res.clock > maxClock {
			maxClock = res.clock
		}
	}
	// The marker's clock is only trustworthy if a read quorum answered
	// definitively: with fewer, the stamp could land below a version an
	// unreachable owner holds, and the delete would ack 204 yet erase
	// nothing. Shed instead — the client retries when owners recover.
	if probeNeed := min(rt.readQuorum(), len(owners)); okProbes < probeNeed {
		rt.stats.quorumFailures.Inc()
		span.Fail("delete probe quorum failed")
		rt.shed(w, span, fmt.Sprintf("delete probe quorum failed: %d definitive answers from %d probes, need %d",
			okProbes, len(live), probeNeed))
		return
	}

	ts := storage.Tombstone{
		Layer: key.Layer, TX: key.TX, TY: key.TY,
		Clock:      maxClock + 1,
		Created:    uint64(time.Now().Unix()),
		TTLSeconds: uint64(rt.cfg.TombstoneTTL / time.Second),
	}
	// Built once: every owner receives byte-identical marker bytes.
	marker := storage.EncodeTombstone(ts)
	// Phase 2: replicate the marker exactly like a write.
	rt.replicate(w, r, span, key, owners, marker, storage.Checksum(marker), ts.Clock,
		&ledgerEntry{Clock: ts.Clock, Created: ts.Created, TTLSeconds: ts.TTLSeconds})
}

// replicate writes payload to key's owners at the sloppy write quorum
// and answers the client: live owners get a shard.write leg, dead or
// failed ones a hint. del, when non-nil, describes the deletion marker
// payload is: its hints carry Tomb, the shed message says "delete",
// and success records the marker in the GC ledger.
func (rt *Router) replicate(w http.ResponseWriter, r *http.Request, span *obs.Span, key storage.TileKey,
	owners []*member, payload []byte, sum string, clock uint64, del *ledgerEntry) {
	trace := obs.TraceID(r.Context())
	need := min(rt.writeQuorum(), len(owners))
	live, toHint := splitAlive(owners)
	for _, m := range live {
		rt.stats.shardRouted.With(m.node.Name).Inc()
	}
	results := fanOut(rt, r.Context(), span, "shard.write", live,
		func(ctx context.Context, leg *obs.Span, m *member) (struct{}, error) {
			return struct{}{}, rt.shardPut(ctx, trace, leg, m, key, payload, sum, "")
		})
	acked := 0
	for range live {
		// errSuperseded acks too: the shard ordered the write below state
		// it holds (a tile below a tombstone, or a marker below a write
		// that landed after phase 1 of its delete) — accepted-and-
		// immediately-superseded is a completed write under
		// last-writer-wins, not a failure.
		if d := <-results; d.err == nil || errors.Is(d.err, errSuperseded) {
			acked++
		} else {
			toHint = append(toHint, d.m)
		}
	}
	hinted := 0
	for _, m := range toHint {
		h := &hint{Target: m.node.Name, Key: key, Data: payload, Tomb: del != nil, Clock: clock, Sum: sum}
		if rt.queueHint(r.Context(), trace, span, h, owners) {
			hinted++
		}
	}
	span.SetAttrInt("acked", int64(acked))
	span.SetAttrInt("hinted", int64(hinted))
	// Sloppy quorum: a durably parked hint is a promise the write will
	// reach its owner, so it counts toward the write quorum — this is
	// what keeps writes available while a replica is dead.
	if acked+hinted < need {
		op := "write"
		if del != nil {
			op = "delete"
		}
		rt.stats.quorumFailures.Inc()
		span.Fail(op + " quorum failed")
		rt.shed(w, span, fmt.Sprintf("%s quorum failed: %d acks + %d hints < %d", op, acked, hinted, need))
		return
	}
	if del != nil && rt.ledger.record(key, *del) {
		rt.stats.tombstonesWritten.Inc()
	}
	rt.stats.served.Inc()
	w.WriteHeader(http.StatusNoContent)
}
