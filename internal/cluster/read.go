package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"

	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
)

// repairJob asks the repair worker to bring one replica up to the
// winner observed by a quorum read. (Sweep-found divergences are
// reconciled inline by the sweeper via syncKey, not queued here.)
type repairJob struct {
	m      *member
	key    storage.TileKey
	data   []byte
	sum    string
	clock  uint64
	tomb   bool   // payload is a tombstone marker, not tile bytes
	expect string // conditional-write precondition observed on the target
}

func (rt *Router) handleTileGet(w http.ResponseWriter, r *http.Request, span *obs.Span, key storage.TileKey) {
	rt.stats.reads.Inc()
	owners := rt.ownersFor(key)
	if len(owners) == 0 {
		rt.internalError(w, span, "no owners for key")
		return
	}
	need := min(rt.readQuorum(), len(owners))
	span.SetAttrInt("owners", int64(len(owners)))

	live, dead := splitAlive(owners)
	all := make([]legResult, 0, len(owners))
	for _, m := range dead {
		// A known-dead owner cannot contribute to quorum; fail its leg
		// instantly instead of burning ShardTimeout on it.
		all = append(all, legResult{m: m, err: errNodeDown})
	}
	for _, m := range live {
		rt.stats.shardRouted.With(m.node.Name).Inc()
	}
	results := fanOut(rt, r.Context(), span, "shard.read", live, rt.readLeg(obs.TraceID(r.Context()), key))
	answers := 0
	for received := 0; received < len(live); received++ {
		res := (<-results).v
		all = append(all, res)
		if res.ok {
			answers++
		}
		if answers < need {
			continue
		}
		if winner := freshest(all); winner != nil && winner.found {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set(storage.ChecksumHeader, winner.sum)
			_, _ = w.Write(winner.data)
		} else {
			// Absent and tombstoned both read as 404 to clients; the
			// marker is cluster machinery, not payload.
			obs.WriteJSONError(w, http.StatusNotFound, "tile not found")
		}
		rt.stats.served.Inc()
		// Remaining legs finish in the background purely to feed
		// read-repair; the client is already answered.
		if remaining := len(live) - received - 1; remaining > 0 &&
			rt.goBG(func() { rt.finishRead(key, results, all, remaining) }) {
			return
		}
		rt.scheduleRepairs(key, all)
		return
	}
	rt.stats.quorumFailures.Inc()
	span.Fail("read quorum failed")
	rt.shed(w, span, fmt.Sprintf("read quorum failed: %d/%d answers", answers, need))
	rt.scheduleRepairs(key, all)
}

// finishRead drains the leftover legs of an already-answered read and
// feeds the full result set to read-repair, using the freshest replica
// seen anywhere (which may be newer than the one served).
func (rt *Router) finishRead(key storage.TileKey, results <-chan legDone[legResult], all []legResult, remaining int) {
	for i := 0; i < remaining; i++ {
		select {
		case d := <-results:
			all = append(all, d.v)
		case <-rt.stop:
			return
		}
	}
	rt.scheduleRepairs(key, all)
}

// scheduleRepairs compares every leg against the winner and queues a
// repair for each stale, missing, or damaged replica that is still
// reachable. Unreachable replicas are the hinted-handoff path's
// problem, not read-repair's.
func (rt *Router) scheduleRepairs(key storage.TileKey, legs []legResult) {
	winner := freshest(legs)
	if winner == nil {
		return
	}
	for i := range legs {
		l := &legs[i]
		if l.m == winner.m {
			continue
		}
		stale := false
		switch {
		case l.integrity:
			stale = true // damaged bytes: overwrite with the winner
		case !l.ok:
			continue // unreachable: hints cover it
		case !l.found && !l.tomb:
			// Absent — including absent where the winner is a tombstone:
			// markers propagate to every owner so absences converge too,
			// and GC reclaims them only once all owners hold one.
			stale = true
			rt.stats.staleReads.Inc()
		case l.tomb != winner.tomb || !bytes.Equal(l.data, winner.data):
			stale = true
			rt.stats.staleReads.Inc()
		}
		if !stale {
			continue
		}
		job := repairJob{
			m: l.m, key: key, data: winner.data, sum: winner.sum,
			clock: winner.clock, tomb: winner.tomb, expect: legExpectOf(l),
		}
		if l.integrity {
			// A damaged replica's true state is unknowable; overwrite it.
			job.expect = ""
		}
		select {
		case rt.repairCh <- job:
			rt.stats.repairsScheduled.Inc()
		default:
			rt.stats.repairsDropped.Inc()
		}
	}
}

// repairLoop is the read-repair worker: it re-checks the target's
// current version (another repair or a direct write may have landed
// first) and writes the winner only if the target is still behind.
func (rt *Router) repairLoop() {
	defer rt.bg.Done()
	for {
		select {
		case <-rt.stop:
			return
		case job := <-rt.repairCh:
			rt.repair(job)
		}
	}
}

func (rt *Router) repair(job repairJob) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ShardTimeout)
	defer cancel()
	_, span := rt.tracer.StartSpan(ctx, "cluster.repair")
	span.SetAttr("node", job.m.node.Name)
	span.SetAttr("layer", job.key.Layer)
	defer span.End()
	cur := rt.shardGet(ctx, span.TraceID(), span, job.m, job.key)
	if (cur.found || cur.tomb) &&
		!storage.FresherState(job.tomb, job.clock, job.data, cur.tomb, cur.clock, cur.data) {
		rt.stats.repairsSkipped.Inc()
		return
	}
	if !cur.ok && !cur.integrity {
		// Target unreachable — the hint path owns convergence now.
		rt.stats.repairsSkipped.Inc()
		span.Fail("target unreachable")
		return
	}
	// The write is conditional on the state just re-read: if anything
	// lands on the replica between this check and the PUT, the shard
	// answers 412 and the repair steps aside instead of overwriting the
	// fresher write — the read-then-overwrite race is closed at the
	// shard, not by hoping the queue is fast.
	expect := ""
	if !cur.integrity {
		expect = legExpectOf(&cur)
	}
	if err := rt.shardPut(ctx, span.TraceID(), span, job.m, job.key, job.data, job.sum, expect); err != nil {
		rt.stats.repairsSkipped.Inc()
		if !errors.Is(err, errPrecondition) && !errors.Is(err, errSuperseded) {
			span.Fail(err.Error())
		}
		return
	}
	rt.stats.repairsDone.Inc()
	rt.stats.shardRepairs.With(job.m.node.Name).Inc()
}
