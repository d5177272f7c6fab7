package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed interval. Spans nest through parent; spans of one
// request share req (its sequence number), and lane places the span on
// a track of the trace viewer.
type span struct {
	id, parent int64
	name       string
	start, end time.Time
	req        int64
	lane       int
	group      string // the workload the span belongs to
}

// tracer keeps spans in memory until the benchmark writes them out. A
// nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int64
	spans []span
	group string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id so children can name their parent before the
// parent's span is recorded.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved id (0 reserves one).
func (t *tracer) record(id, parent int64, name string, start, end time.Time, req int64, lane int) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start, end: end, req: req, lane: lane, group: t.group})
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration. fn receives the
// span's id to parent its own spans.
func (t *tracer) timed(parent int64, name string, fn func(id int64) error) (time.Duration, error) {
	id := t.id()
	start := time.Now()
	err := fn(id)
	end := time.Now()
	t.record(id, parent, name, start, end, 0, 0)
	return end.Sub(start), err
}

// setGroup labels the spans recorded from now on with a workload name.
func (t *tracer) setGroup(g string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.group = g
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by at least one child. Children may overlap
// each other (concurrent work) and may stick out of the parent; only
// the union of their intervals clipped to the parent counts.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		slices.SortFunc(kids, func(a, b span) int { return a.start.Compare(b.start) })
		covered := time.Duration(0)
		var curStart, curEnd time.Time
		open := false
		for _, k := range kids {
			ks, ke := k.start, k.end
			if ks.Before(s.start) {
				ks = s.start
			}
			if ke.After(s.end) {
				ke = s.end
			}
			if !ke.After(ks) {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = ks, ke, true
			case ks.After(curEnd):
				covered += curEnd.Sub(curStart)
				curStart, curEnd = ks, ke
			case ke.After(curEnd):
				curEnd = ke
			}
		}
		if open {
			covered += curEnd.Sub(curStart)
		}
		out[s.id] = s.end.Sub(s.start) - covered
	}
	return out
}

// spanTotal aggregates the spans of one name.
type spanTotal struct {
	name        string
	count       int
	total, self time.Duration
}

// breakdown sums total and self time per span name within one group,
// largest self time first.
func breakdown(spans []span, group string) []spanTotal {
	self := selfTimes(spans)
	byName := map[string]*spanTotal{}
	for _, s := range spans {
		if s.group != group {
			continue
		}
		st := byName[s.name]
		if st == nil {
			st = &spanTotal{name: s.name}
			byName[s.name] = st
		}
		st.count++
		st.total += s.end.Sub(s.start)
		st.self += self[s.id]
	}
	out := make([]spanTotal, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	slices.SortFunc(out, func(a, b spanTotal) int {
		if c := cmp.Compare(b.self, a.self); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})
	return out
}

func printBreakdown(w io.Writer, group string, totals []spanTotal, limit int) {
	fmt.Fprintf(w, "%s: trace breakdown by self time\n", group)
	fmt.Fprintf(w, "  %-34s %7s %11s %11s\n", "span", "count", "total_ms", "self_ms")
	for i, st := range totals {
		if i == limit {
			break
		}
		fmt.Fprintf(w, "  %-34s %7d %11.2f %11.2f\n", st.name, st.count, ms(st.total), ms(st.self))
	}
}

// writeChromeTrace writes spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), which Perfetto and
// chrome://tracing open. Each workload is one process track.
func writeChromeTrace(path string, t *tracer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	spans := t.snapshot()
	self := selfTimes(spans)
	pids := map[string]int{}
	var events []event
	for _, s := range spans {
		pid, ok := pids[s.group]
		if !ok {
			pid = len(pids) + 1
			pids[s.group] = pid
			events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": s.group}})
		}
		args := map[string]any{"id": s.id, "self_us": float64(self[s.id]) / 1e3}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		if s.req != 0 {
			args["req"] = s.req
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(t.epoch)) / 1e3,
			Dur: float64(s.end.Sub(s.start)) / 1e3,
			Pid: pid, Tid: s.lane, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
