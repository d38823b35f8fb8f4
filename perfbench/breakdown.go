package main

// Analysis of the traced run: spans are joined into one tree per client
// operation, each span's self time is computed, and the operation's wall
// time is split among the layers.

// acc sums a quantity over spans.
type acc struct {
	n   int64
	sum int64
}

func (a *acc) add(v int64) { a.n++; a.sum += v }

// meanMs is the mean of a nanosecond sum in milliseconds (0 when empty).
func (a acc) meanMs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.n) / 1e6
}

// breakdown is the per-layer account of a traced run.
type breakdown struct {
	dur   [nLayers][nKinds]acc // span durations
	self  [nLayers][nKinds]acc // span self times
	bytes [nLayers][nKinds]int64
	// storeReadsUnderGet counts store reads made while serving a tile GET
	// (a PUT also reads the current replica state).
	storeReadsUnderGet int64
	// attr[l] is the summed time, over client operations, during which
	// l was the innermost layer working on the operation.
	attr  [nLayers]int64
	roots int64
}

func (b *breakdown) count(l layer, k kind) int64 { return b.dur[l][k].n }

// all folds the per-kind accumulators of one layer.
func (b *breakdown) all(m *[nLayers][nKinds]acc, l layer) acc {
	var out acc
	for k := kind(0); k < nKinds; k++ {
		out.n += m[l][k].n
		out.sum += m[l][k].sum
	}
	return out
}

// analyze joins spans into request trees and accounts for them.
//
// A traced span's parent is the span of the next layer out in the same
// trace that overlaps it most; node and TileServer spans must also match
// the node. A store span's parent is the TileServer span on the same
// node, for the same tile (or a listing), that overlaps it most. Spans
// whose parent chain does not reach a client operation still count in
// the per-span statistics but not in the attribution.
func analyze(spans []span) *breakdown {
	b := &breakdown{}
	parent := make([]int, len(spans))
	byTrace := map[string][]int{}
	type serverKey struct {
		node   int8
		list   bool
		tx, ty int32
	}
	servers := map[serverKey][]int{}
	for i, s := range spans {
		parent[i] = -1
		if s.layer == lStore || s.trace == "" {
			continue
		}
		byTrace[s.trace] = append(byTrace[s.trace], i)
		if s.layer == lServer {
			k := serverKey{node: s.node, list: s.kind == kList}
			if !k.list {
				k.tx, k.ty = s.tx, s.ty
			}
			servers[k] = append(servers[k], i)
		}
	}
	ivOf := func(i int) interval { return interval{spans[i].start, spans[i].end} }
	best := func(i int, cands []int, ok func(j int) bool) int {
		found, most := -1, int64(-1)
		for _, j := range cands {
			if j == i || !ok(j) {
				continue
			}
			if ov := overlap(ivOf(i), ivOf(j)); ov > most {
				found, most = j, ov
			}
		}
		return found
	}
	for _, idx := range byTrace {
		for _, i := range idx {
			s := spans[i]
			if s.layer == lClient {
				continue
			}
			want := s.layer - 1
			parent[i] = best(i, idx, func(j int) bool {
				p := spans[j]
				if p.layer != want {
					return false
				}
				// A node request hangs under the leg sent to that node; a
				// TileServer request under that node's handler.
				if s.layer == lNode || s.layer == lServer {
					return p.node == s.node
				}
				return true
			})
		}
	}
	for i, s := range spans {
		if s.layer != lStore || s.node < 0 {
			continue
		}
		k := serverKey{node: s.node, list: s.kind == kList}
		if !k.list {
			k.tx, k.ty = s.tx, s.ty
		}
		parent[i] = best(i, servers[k], func(j int) bool {
			return spans[j].start <= s.start && s.end <= spans[j].end
		})
		if p := parent[i]; p >= 0 && s.kind == kGet && spans[p].kind == kGet {
			b.storeReadsUnderGet++
		}
	}

	children := make([][]int, len(spans))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i, s := range spans {
		ivs := make([]interval, len(children[i]))
		for c, j := range children[i] {
			ivs[c] = ivOf(j)
		}
		b.dur[s.layer][s.kind].add(s.end - s.start)
		b.self[s.layer][s.kind].add(selfTime(ivOf(i), ivs))
		b.bytes[s.layer][s.kind] += s.bytes
	}

	// Attribution: clip every span to its parent's effective interval,
	// then for each operation let U_d be the union of the effective
	// intervals of its spans at depth >= d. Layer d is the innermost
	// layer at work for |U_d| - |U_d+1| of the operation's time; the
	// shares sum to the operation's duration.
	eff := make([]interval, len(spans))
	root := make([]int, len(spans))
	var resolve func(i int) (interval, int)
	done := make([]bool, len(spans))
	resolve = func(i int) (interval, int) {
		if done[i] {
			return eff[i], root[i]
		}
		done[i] = true
		switch p := parent[i]; {
		case spans[i].layer == lClient:
			eff[i], root[i] = ivOf(i), i
		case p < 0:
			eff[i], root[i] = interval{}, -1
		default:
			pe, pr := resolve(p)
			eff[i], root[i] = ivOf(i).clip(pe), pr
		}
		return eff[i], root[i]
	}
	perRoot := map[int][]int{}
	for i := range spans {
		if _, r := resolve(i); r >= 0 {
			perRoot[r] = append(perRoot[r], i)
		}
	}
	for r, members := range perRoot {
		b.roots++
		prev := eff[r].len()
		for d := lClient + 1; d <= nLayers; d++ {
			var ivs []interval
			for _, i := range members {
				if spans[i].layer >= d {
					ivs = append(ivs, eff[i])
				}
			}
			cur := covered(eff[r], ivs)
			b.attr[d-1] += prev - cur
			prev = cur
		}
	}
	return b
}
