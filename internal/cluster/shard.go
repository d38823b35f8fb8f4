package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"hdmaps/internal/obs"
	"hdmaps/internal/storage"
)

// legResult is one replica's answer to a read.
type legResult struct {
	m         *member
	ok        bool // definitive answer: found tile, tombstone, or authoritative miss
	found     bool
	tomb      bool // the replica holds a deletion marker; data is the marker bytes
	data      []byte
	sum       string
	clock     uint64
	integrity bool  // reachable but served damaged bytes — repairable
	err       error // why the leg gave no usable state (nil on any definitive answer)
}

// legExpectOf renders a leg's observed state as a conditional-write
// precondition: whatever mutation follows is accepted by the shard only
// if the state is still exactly this.
func legExpectOf(l *legResult) string {
	switch {
	case l.tomb:
		return storage.ReplicaState{Tomb: true, Clock: l.clock}.String()
	case l.found:
		return storage.ReplicaState{Found: true, Clock: l.clock, Sum: l.sum}.String()
	default:
		return "absent"
	}
}

// The cluster's total order over replica states is
// storage.FresherState: clock first, tombstone beats live on a tie,
// payload bytes as final tiebreak. It is deterministic, so every
// quorum read, repair, and sweep picks the same winner and replicas
// converge byte-identical — including agreeing on deletions.

// freshest is the one winner rule: the leg holding the freshest tile
// or marker (the first of equals), nil when no leg holds either.
func freshest(legs []legResult) *legResult {
	var win *legResult
	for i := range legs {
		l := &legs[i]
		if (l.found || l.tomb) && (win == nil ||
			storage.FresherState(l.tomb, l.clock, l.data, win.tomb, win.clock, win.data)) {
			win = l
		}
	}
	return win
}

// Semantic (non-error) write outcomes: the shard answered, ordered the
// write, and refused it deliberately. Neither strikes the failure
// detector nor counts as a shard error.
var (
	// errSuperseded is a 409: the write is ordered below the replica's
	// current state (a stale replay losing to a tombstone, or an
	// obsolete tombstone losing to a newer tile). The write is
	// accepted-and-immediately-superseded in LWW terms.
	errSuperseded = errors.New("cluster: write superseded by fresher state")
	// errPrecondition is a 412: the ExpectHeader precondition failed —
	// the replica's state moved between observation and write.
	errPrecondition = errors.New("cluster: write precondition failed")
	// errNodeDown fails a leg to an owner the failure detector already
	// holds dead, without spending a request on it.
	errNodeDown = errors.New("node down")
)

// ---- fan-out ---------------------------------------------------------

// legFunc is one shard request, run under its leg span and context.
type legFunc[T any] func(ctx context.Context, leg *obs.Span, m *member) (T, error)

// legDone is one finished leg.
type legDone[T any] struct {
	m   *member
	v   T
	err error
}

// fanOut is how every multi-node operation reaches its members: one
// leg per member, each under a child span named name and a detached
// leg context, failed or ended as fn returns, its result delivered on
// the returned channel. The channel holds every result, so no leg
// blocks on a caller that stopped receiving (a quorum read answers
// early and leaves the rest to its finisher).
func fanOut[T any](rt *Router, ctx context.Context, span *obs.Span, name string, ms []*member, fn legFunc[T]) <-chan legDone[T] {
	done := make(chan legDone[T], len(ms))
	for _, m := range ms {
		// Child spans are started sequentially here (the parent span is
		// goroutine-owned); each leg goroutine then owns its child.
		leg := span.StartChild(name)
		leg.SetAttr("node", m.node.Name)
		go func(m *member, leg *obs.Span) {
			lctx, cancel := rt.legContext(ctx)
			defer cancel()
			v, err := fn(lctx, leg, m)
			if err != nil {
				leg.Fail(err.Error())
			}
			leg.End()
			done <- legDone[T]{m: m, v: v, err: err}
		}(m, leg)
	}
	return done
}

// oneLeg is fanOut's single-leg form: it waits for the leg's result.
func oneLeg[T any](rt *Router, ctx context.Context, span *obs.Span, name string, m *member, fn legFunc[T]) (T, error) {
	d := <-fanOut(rt, ctx, span, name, []*member{m}, fn)
	return d.v, d.err
}

// readLeg reads key from each member it runs on.
func (rt *Router) readLeg(trace string, key storage.TileKey) legFunc[legResult] {
	return func(ctx context.Context, leg *obs.Span, m *member) (legResult, error) {
		res := rt.shardGet(ctx, trace, leg, m, key)
		return res, res.err
	}
}

// jsonLeg decodes one member's JSON endpoint at path into v.
func (rt *Router) jsonLeg(trace, path string, v any) legFunc[struct{}] {
	return func(ctx context.Context, leg *obs.Span, m *member) (struct{}, error) {
		return struct{}{}, rt.shardJSON(ctx, trace, leg, m, path, v)
	}
}

// splitAlive partitions members by the failure detector's current view.
func splitAlive(ms []*member) (live, dead []*member) {
	live = make([]*member, 0, len(ms))
	for _, m := range ms {
		if m.Alive() {
			live = append(live, m)
		} else {
			dead = append(dead, m)
		}
	}
	return live, dead
}

// ---- shard legs ------------------------------------------------------

func (rt *Router) tileURL(base string, key storage.TileKey) string {
	return fmt.Sprintf("%s/v1/tiles/%s/%d/%d", base, url.PathEscape(key.Layer), key.TX, key.TY)
}

// legContext detaches a shard leg from the client request: a read
// finisher keeps collecting answers for repair after the response is
// written, so legs must not die with the handler. Trace identity is
// carried over explicitly.
func (rt *Router) legContext(ctx context.Context) (context.Context, context.CancelFunc) {
	detached := obs.WithTraceID(context.Background(), obs.TraceID(ctx))
	return context.WithTimeout(detached, rt.cfg.ShardTimeout)
}

// legHeaders stamps trace propagation headers on a shard request: the
// trace ID plus the leg's span ID, so the node-side server span nests
// under this exact leg in /tracez.
func legHeaders(req *http.Request, trace string, leg *obs.Span) {
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	if id := leg.IDHex(); id != "" {
		req.Header.Set(obs.SpanHeader, id)
	}
}

// shardFailed counts a leg the node could not answer; a transport
// error also strikes the failure detector.
func (rt *Router) shardFailed(m *member, err error, strike bool) error {
	if strike {
		rt.noteFailure(m, err.Error())
	}
	rt.stats.shardErrors.With(m.node.Name).Inc()
	return err
}

// shardGet reads one replica and classifies the answer. Transport
// errors strike the failure detector; damaged payloads (checksum
// mismatch, unreadable header) are flagged for repair.
func (rt *Router) shardGet(ctx context.Context, trace string, leg *obs.Span, m *member, key storage.TileKey) legResult {
	res := legResult{m: m}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rt.tileURL(m.node.Base, key), nil)
	if err != nil {
		res.err = err
		return res
	}
	legHeaders(req, trace, leg)
	resp, err := rt.httpc.Do(req)
	if err != nil {
		res.err = rt.shardFailed(m, err, true)
		return res
	}
	defer func() { _ = resp.Body.Close() }()
	damaged := func(msg string) legResult {
		rt.stats.integrityFailures.Inc()
		res.integrity = true
		res.err = errors.New(msg)
		return res
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxTileBytes+1))
		if err != nil {
			res.err = rt.shardFailed(m, err, true)
			return res
		}
		sum := storage.Checksum(data)
		if want := resp.Header.Get(storage.ChecksumHeader); want != "" && want != sum {
			return damaged("checksum mismatch")
		}
		clock, err := storage.PeekClock(data)
		if err != nil {
			if ts, derr := storage.DecodeTombstone(data); derr == nil {
				// A parked deletion marker read back from a hint layer
				// (hint layers store payloads raw).
				res.ok, res.tomb, res.data, res.sum, res.clock = true, true, data, sum, ts.Clock
				return res
			}
			return damaged("unreadable tile: " + err.Error())
		}
		res.ok, res.found, res.data, res.sum, res.clock = true, true, data, sum, clock
		return res
	case resp.StatusCode == http.StatusNotFound:
		if resp.Header.Get(storage.TombstoneHeader) != "" {
			// Deleted, not merely absent: the body carries the marker.
			data, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxTileBytes+1))
			if err == nil {
				sum := storage.Checksum(data)
				want := resp.Header.Get(storage.ChecksumHeader)
				if want == "" || want == sum {
					if ts, derr := storage.DecodeTombstone(data); derr == nil {
						res.ok, res.tomb, res.data, res.sum, res.clock = true, true, data, sum, ts.Clock
						return res
					}
				}
			}
			return damaged("unreadable tombstone")
		}
		res.ok = true // an authoritative miss is a valid quorum answer
		return res
	default:
		res.err = rt.shardFailed(m, errors.New("status "+resp.Status), false)
		return res
	}
}

// shardPut writes one replica (2xx is success). A non-empty expect is
// sent as the conditional-write precondition; 412 and 409 come back as
// errPrecondition/errSuperseded — semantic outcomes the shard decided
// deliberately, not shard failures.
func (rt *Router) shardPut(ctx context.Context, trace string, leg *obs.Span, m *member, key storage.TileKey, data []byte, sum, expect string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, rt.tileURL(m.node.Base, key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	legHeaders(req, trace, leg)
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(storage.ChecksumHeader, sum)
	if expect != "" {
		req.Header.Set(storage.ExpectHeader, expect)
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return rt.shardFailed(m, err, true)
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusConflict:
		return errSuperseded
	case resp.StatusCode == http.StatusPreconditionFailed:
		return errPrecondition
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		return rt.shardFailed(m, errors.New("status "+resp.Status), false)
	}
	return nil
}

// shardDelete deletes one replica; a 404 counts as success (already
// gone). A non-empty expect makes the delete conditional (412 =>
// errPrecondition) — tombstone GC uses this to reclaim exactly the
// marker it observed.
func (rt *Router) shardDelete(ctx context.Context, trace string, leg *obs.Span, m *member, key storage.TileKey, expect string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, rt.tileURL(m.node.Base, key), nil)
	if err != nil {
		return err
	}
	legHeaders(req, trace, leg)
	if expect != "" {
		req.Header.Set(storage.ExpectHeader, expect)
	}
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return rt.shardFailed(m, err, true)
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	_ = resp.Body.Close()
	if resp.StatusCode == http.StatusPreconditionFailed {
		return errPrecondition
	}
	if resp.StatusCode != http.StatusNotFound && (resp.StatusCode < 200 || resp.StatusCode >= 300) {
		return rt.shardFailed(m, errors.New("status "+resp.Status), false)
	}
	return nil
}

// shardJSON fetches one node's JSON metadata endpoint.
func (rt *Router) shardJSON(ctx context.Context, trace string, leg *obs.Span, m *member, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.node.Base+path, nil)
	if err != nil {
		return err
	}
	legHeaders(req, trace, leg)
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return rt.shardFailed(m, err, true)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return rt.shardFailed(m, errors.New("status "+resp.Status), false)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, rt.cfg.MaxTileBytes)).Decode(v)
}
