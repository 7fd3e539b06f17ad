package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded interval. Parent is the index of the span that
// caused it, -1 for a root.
type span struct {
	Name       string
	Parent     int
	Start, End time.Time
}

// spanLog keeps the traced run's spans in memory; write exports them when
// the run ends.
type spanLog struct {
	spans []span
}

// add records a finished span and returns its index.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	l.spans = append(l.spans, span{Name: name, Parent: parent, Start: start, End: end})
	return len(l.spans) - 1
}

// begin opens a span whose end is set later by finish; children recorded
// in between name it as their parent.
func (l *spanLog) begin(name string, parent int) int {
	return l.add(name, parent, time.Now(), time.Time{})
}

// finish closes a span opened by begin.
func (l *spanLog) finish(id int) { l.spans[id].End = time.Now() }

// reparent makes the given spans children of parent. A pass span is only
// known once its PassHook fires, after the spans it caused (gravity build
// and walk) have been recorded.
func (l *spanLog) reparent(ids []int, parent int) {
	for _, id := range ids {
		l.spans[id].Parent = parent
	}
}

// selfTimes returns, per span name, the summed self time in seconds: a
// span's duration minus the durations of its children.
func (l *spanLog) selfTimes() map[string]float64 {
	self := make(map[string]float64)
	for _, s := range l.spans {
		self[s.Name] += s.End.Sub(s.Start).Seconds()
	}
	for _, s := range l.spans {
		if s.Parent >= 0 {
			self[l.spans[s.Parent].Name] -= s.End.Sub(s.Start).Seconds()
		}
	}
	return self
}

// selfTimeNotes renders selfTimes as one line per span name, sorted,
// with the number of spans and the mean self time per span.
func (l *spanLog) selfTimeNotes() []string {
	self := l.selfTimes()
	count := make(map[string]int)
	for _, s := range l.spans {
		count[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	notes := make([]string, 0, len(names))
	for _, n := range names {
		notes = append(notes, fmt.Sprintf("self %-16s %10.3f ms per span over %d spans",
			n, self[n]*1e3/float64(count[n]), count[n]))
	}
	return notes
}

// write exports the spans as Chrome trace-event JSON (complete "X"
// events, microseconds from the first span) and returns the path.
func (l *spanLog) write(dir, name string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var origin time.Time
	if len(l.spans) > 0 {
		origin = l.spans[0].Start
	}
	evs := make([]event, len(l.spans))
	for i, s := range l.spans {
		evs[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Sub(origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.Parent},
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
