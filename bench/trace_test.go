package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{id: 1, name: "root", start: at(0), end: at(100)},
		// Two concurrent children covering [10,50] together, and one
		// sticking out past the parent's end: [90,100] counts.
		{id: 2, parent: 1, name: "a", start: at(10), end: at(40)},
		{id: 3, parent: 1, name: "b", start: at(20), end: at(50)},
		{id: 4, parent: 1, name: "c", start: at(90), end: at(130)},
		// A grandchild covers part of a; it does not count against root.
		{id: 5, parent: 2, name: "a.1", start: at(15), end: at(25)},
		// A child entirely inside another child adds nothing.
		{id: 6, parent: 1, name: "d", start: at(30), end: at(35)},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{
		1: 50 * time.Millisecond, // 100 - [10,50] - [90,100]
		2: 20 * time.Millisecond,
		3: 30 * time.Millisecond,
		4: 40 * time.Millisecond,
		5: 10 * time.Millisecond,
		6: 5 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("span %d self = %v, want %v", id, self[id], want)
		}
	}

	tr := &tracer{epoch: t0, spans: spans}
	for i := range tr.spans {
		tr.spans[i].group = "w"
	}
	totals := breakdown(tr.spans, "w")
	if totals[0].name != "root" || totals[0].self != 50*time.Millisecond {
		t.Errorf("largest self time first: got %+v", totals[0])
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(spans)+1 { // plus the process-name record
		t.Fatalf("%d events, want %d", len(doc.TraceEvents), len(spans)+1)
	}
	if e := doc.TraceEvents[2]; e.Name != "a" || e.Ph != "X" || e.Ts != 10000 || e.Dur != 30000 {
		t.Errorf("event for span a: %+v", e)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	d, err := tr.timed(0, "x", func(id int64) error {
		if id != 0 {
			t.Errorf("nil tracer handed out span id %d", id)
		}
		return nil
	})
	if err != nil || d < 0 {
		t.Fatalf("timed: %v %v", d, err)
	}
	if tr.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
}
