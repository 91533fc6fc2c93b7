package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of one
// request (a marker and its POST and polls) or one sweep point share Req.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	Req     string `json:"req,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer collects spans in memory; the traced run writes them out once at
// the end. A nil tracer records nothing, so the timed run pays one nil
// check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id, parent, name, req, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return id
}

// reserve allocates an id for a parent whose end is not known yet; finish
// fills it in.
func (t *tracer) reserve(parent int, name, req string, start time.Time) int {
	return t.add(parent, name, req, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// layerTime is a span name's total and self time over a trace.
type layerTime struct {
	Name   string
	Count  int
	TotalS float64
	SelfS  float64
}

// selfTimes computes, per span name, total duration and self time — a
// span's duration minus the part of its interval its children cover
// (overlapping children counted once). It also counts children that stick
// out of their parent's interval, which a well-formed trace has none of.
func selfTimes(spans []span) (byName []layerTime, outside int) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	acc := map[string]*layerTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			if k.StartNS < s.StartNS || k.EndNS > s.EndNS {
				outside++
			}
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := acc[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			acc[s.Name] = lt
		}
		lt.Count++
		lt.TotalS += float64(s.EndNS-s.StartNS) / 1e9
		lt.SelfS += float64(s.EndNS-s.StartNS-covered) / 1e9
	}
	for _, lt := range acc {
		byName = append(byName, *lt)
	}
	sort.Slice(byName, func(a, b int) bool { return byName[a].Name < byName[b].Name })
	return byName, outside
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
