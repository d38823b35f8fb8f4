package main

import "testing"

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one inside", []interval{{120, 150}}, 70},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"parallel overlapping legs count once", []interval{{110, 160}, {120, 150}, {140, 180}}, 30},
		{"touching", []interval{{110, 130}, {130, 150}}, 60},
		{"overhang past the end is clipped", []interval{{150, 400}}, 50},
		{"overhang before the start is clipped", []interval{{0, 130}}, 70},
		{"detached leader outliving the parent", []interval{{110, 120}, {180, 900}}, 70},
		{"child wholly outside", []interval{{300, 400}}, 100},
		{"child covering everything", []interval{{50, 250}, {120, 130}}, 0},
		{"empty child", []interval{{150, 150}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAnalyzeAttribution checks that the per-layer shares of one
// operation sum to its duration, with parallel legs, a leg outliving the
// router, and a store read matched to its TileServer span.
func TestAnalyzeAttribution(t *testing.T) {
	spans := []span{
		{trace: "a", layer: lClient, kind: kGet, node: -1, start: 0, end: 100},
		{trace: "a", layer: lHTTP, kind: kGet, node: -1, start: 10, end: 90},
		{trace: "a", layer: lRouter, kind: kGet, node: -1, start: 20, end: 80},
		{trace: "a", layer: lLeg, kind: kGet, node: 0, start: 25, end: 60},
		{trace: "a", layer: lLeg, kind: kGet, node: 1, start: 25, end: 70},
		{trace: "a", layer: lLeg, kind: kGet, node: 2, start: 25, end: 120}, // finisher leg
		{trace: "a", layer: lNode, kind: kGet, node: 0, start: 30, end: 55},
		{trace: "a", layer: lServer, kind: kGet, node: 0, tx: 3, ty: 4, start: 35, end: 50},
		{layer: lStore, kind: kGet, node: 0, tx: 3, ty: 4, start: 40, end: 45, bytes: 7},
		// A store read on another tile must not attach to this tree.
		{layer: lStore, kind: kGet, node: 0, tx: 9, ty: 9, start: 40, end: 45},
	}
	b := analyze(spans)
	if b.roots != 1 {
		t.Fatalf("roots = %d, want 1", b.roots)
	}
	var sum int64
	for _, v := range b.attr {
		sum += v
	}
	if sum != 100 {
		t.Errorf("attribution sums to %d, want the operation's 100", sum)
	}
	want := [nLayers]int64{
		lClient: 20, // 0-10 and 90-100
		lHTTP:   20, // 10-20 and 80-90
		lRouter: 5,  // 20-25: the finisher leg is clipped to the router's 80
		lLeg:    30, // legs cover 25-80, minus the node's 30-55
		lNode:   10, // 30-35 and 50-55
		lServer: 10, // 35-40 and 45-50
		lStore:  5,  // 40-45
	}
	for l := lClient; l < nLayers; l++ {
		if b.attr[l] != want[l] {
			t.Errorf("attr[%s] = %d, want %d", layerNames[l], b.attr[l], want[l])
		}
	}
	if got := b.self[lRouter][kGet].sum; got != 5 {
		t.Errorf("router self = %d, want 5", got)
	}
	if got := b.self[lServer][kGet].sum; got != 10 {
		t.Errorf("tileserver self = %d, want 10", got)
	}
	if b.storeReadsUnderGet != 1 {
		t.Errorf("store reads under GET = %d, want 1", b.storeReadsUnderGet)
	}
}
