package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		// Two children overlapping on [20,30]: together they cover [10,40].
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 40},
		// A disjoint child, itself with a child that covers half of it.
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 80},
		{ID: 4, Parent: 3, Name: "d", Start: 70, End: 80},
		// A child running past its parent's end counts only inside it.
		{ID: 5, Parent: 0, Name: "e", Start: 95, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"request": 100 - 30 - 20 - 5,
		"a":       20,
		"b":       20,
		"c":       10,
		"d":       10,
		"e":       25,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := &tracer{base: time.Now()}
	id := tr.begin(1, -1, "request")
	tr.end(id)
	if len(tr.spans) != 0 {
		t.Fatalf("tracer off recorded %d spans", len(tr.spans))
	}
	tr.on = true
	root := tr.begin(1, -1, "request")
	child := tr.begin(1, root, "engine.exec")
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("spans %+v", tr.spans)
	}
}
