package cluster

import (
	"strings"
	"sync"

	"hdmaps/internal/storage"
)

// hintLayerPrefix marks handoff layers on fallback nodes. A hint for
// key {L, tx, ty} missed by node "n2" is stored on the fallback node
// as tile {hint--n2--L, tx, ty} with the original payload, so the
// parked write survives a router restart on a real node's disk (the
// Dynamo-style "hinted handoff buffer on a fallback node"). Hint
// layers are filtered out of every merged listing, so clients never
// see them. The prefix is owned by the storage layer, which stores
// hint payloads raw (tile or tombstone bytes alike).
const hintLayerPrefix = storage.HintLayerPrefix

// hintLayer names the handoff layer for writes node target missed on
// layer.
func hintLayer(target, layer string) string {
	return hintLayerPrefix + target + "--" + layer
}

// parseHintLayer splits a hint layer name into (target node, original
// layer); ok is false for non-hint layers.
func parseHintLayer(name string) (target, layer string, ok bool) {
	if !strings.HasPrefix(name, hintLayerPrefix) {
		return "", "", false
	}
	rest := name[len(hintLayerPrefix):]
	i := strings.Index(rest, "--")
	if i <= 0 || i+2 >= len(rest) {
		return "", "", false
	}
	return rest[:i], rest[i+2:], true
}

// isHintLayer reports whether a layer name is a handoff layer.
func isHintLayer(name string) bool {
	_, _, ok := parseHintLayer(name)
	return ok
}

// hint is one write a down owner missed — a tile PUT or, with Tomb
// set, a deletion whose payload is the encoded tombstone marker. Both
// kinds park a durable copy on a fallback node, so deletes survive a
// router restart exactly like writes do.
type hint struct {
	Target   string          // owner that missed the write
	Fallback string          // node durably holding the payload ("" when memory-only)
	Key      storage.TileKey // original tile key
	Data     []byte          // payload to replay: tile bytes, or marker bytes when Tomb
	Tomb     bool            // payload is a tombstone marker (the missed write was a delete)
	Clock    uint64          // payload clock, for replay ordering diagnostics
	Sum      string          // payload checksum (ChecksumHeader value)
}

// hintBuffer indexes pending hints by target node, bounded by max
// entries in total. One key keeps only its latest hint per target —
// replaying an overwritten intermediate write would be wasted work and,
// worse, could race a fresher repair.
type hintBuffer struct {
	mu       sync.Mutex
	byTarget map[string]map[storage.TileKey]*hint
	total    int
	max      int
}

func newHintBuffer(max int) *hintBuffer {
	return &hintBuffer{byTarget: make(map[string]map[storage.TileKey]*hint), max: max}
}

// hintOutcome reports what add/restore did, so callers can keep the
// accounting invariant queued == drained + superseded + dropped +
// pending exact.
type hintOutcome int

const (
	hintAdded    hintOutcome = iota // new (target, key) slot filled
	hintReplaced                    // an older hint for the slot was superseded
	hintFull                        // buffer at capacity; hint not stored
)

// add indexes a hint, replacing any earlier hint for the same
// (target, key) — replaying an overwritten intermediate write would be
// wasted work and could race a fresher repair. hintFull means the
// caller must fail the write leg rather than silently park it nowhere.
func (b *hintBuffer) add(h *hint) hintOutcome {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.byTarget[h.Target]
	if m == nil {
		m = make(map[storage.TileKey]*hint)
		b.byTarget[h.Target] = m
	}
	if _, exists := m[h.Key]; exists {
		m[h.Key] = h
		return hintReplaced
	}
	if b.total >= b.max {
		return hintFull
	}
	b.total++
	m[h.Key] = h
	return hintAdded
}

// restore re-inserts a hint claimed by take whose replay failed. Unlike
// add it never clobbers: if a newer hint for the slot arrived while the
// drain held this one, the old hint is the superseded side
// (hintReplaced) and is discarded.
func (b *hintBuffer) restore(h *hint) hintOutcome {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.byTarget[h.Target]
	if m == nil {
		m = make(map[storage.TileKey]*hint)
		b.byTarget[h.Target] = m
	}
	if _, exists := m[h.Key]; exists {
		return hintReplaced
	}
	if b.total >= b.max {
		return hintFull
	}
	b.total++
	m[h.Key] = h
	return hintAdded
}

// take removes and returns every pending hint for target — the drain
// claims the whole batch, re-adding any hint whose replay fails.
func (b *hintBuffer) take(target string) []*hint {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.byTarget[target]
	if len(m) == 0 {
		return nil
	}
	out := make([]*hint, 0, len(m))
	for _, h := range m {
		out = append(out, h)
	}
	delete(b.byTarget, target)
	b.total -= len(out)
	return out
}

// pending reports the number of unreplayed hints, total and for one
// target.
func (b *hintBuffer) pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total
}

func (b *hintBuffer) pendingFor(target string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.byTarget[target])
}

// pendingForKey reports whether any target still has an unreplayed
// hint for key. Tombstone GC consults this: a marker with a hint in
// flight is not yet safe to reclaim.
func (b *hintBuffer) pendingForKey(key storage.TileKey) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, m := range b.byTarget {
		if _, ok := m[key]; ok {
			return true
		}
	}
	return false
}

// pendingByTarget snapshots the per-target pending counts for
// /clusterz.
func (b *hintBuffer) pendingByTarget() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int, len(b.byTarget))
	for t, m := range b.byTarget {
		if len(m) > 0 {
			out[t] = len(m)
		}
	}
	return out
}
