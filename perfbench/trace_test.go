package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		// Two children overlap on [30, 40]: together they cover [10, 60].
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
		// A child running past its parent counts only inside it: [80, 100].
		{ID: 4, Parent: 1, Name: "child", Start: 80, End: 120},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 30, 2: 25, 3: 30, 4: 40, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTimeWithNestedAndDisjointChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 30}, // inside span 2
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
	}
	if got := selfTimes(spans)[1]; got != 50 {
		t.Errorf("self time = %d, want 50", got)
	}
}

func TestTracerWritesSpansAndSumsByName(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	at := func(ns int) time.Time { return t0.Add(time.Duration(ns) * time.Millisecond) }
	root := tr.newID()
	tr.record(0, root, 1, "work", at(2), at(5))
	tr.record(root, 0, 1, "op", at(0), at(10))
	byName := selfByName(tr.snapshot())
	if byName["op"] != 7 || byName["work"] != 3 {
		t.Errorf("self ms by name = %v, want op 7, work 3", byName)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path, map[string]any{"workload": "w"}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 3 {
		t.Fatalf("span file has %d lines, want a header and 2 spans", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[2]), &s); err != nil || s.ID != root || s.Name != "op" {
		t.Errorf("last span line %q, want the op span with id %d", lines[2], root)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.newID(); id != 0 {
		t.Errorf("nil tracer reserved id %d", id)
	}
	if id := tr.record(0, 0, 0, "x", time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer recorded span %d", id)
	}
}
