package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call the harness made into a layer's public function.
// Spans live in memory for the whole run and are written out at the end.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Req    int    `json:"req"`    // request (frame, read, training) the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// N is the work the span covered (samples, rows, bytes); 0 = one call.
	N int `json:"n,omitempty"`
}

// tracer records spans. A nil tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index; finish closes it.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) finish(id, n int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch).Nanoseconds()
	t.spans[id-1].N = n
}

// stageStat aggregates spans of one name.
type stageStat struct {
	Calls int
	N     int64 // summed work units
	Total time.Duration
	Self  time.Duration // total minus the time covered by child spans
}

// totalPerUnit returns nanoseconds per work unit (per call when N is 0).
func (s stageStat) totalPerUnit() float64 {
	d := s.N
	if d == 0 {
		d = int64(s.Calls)
	}
	if d == 0 {
		return 0
	}
	return float64(s.Total.Nanoseconds()) / float64(d)
}

// stats folds the spans into per-name totals and self times. Children of
// one span never overlap (the harness is sequential inside a traced
// request), so self time is duration minus the summed child durations.
func (t *tracer) stats() map[string]stageStat {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]stageStat)
	for _, s := range t.spans {
		st := out[s.Name]
		st.Calls++
		st.N += int64(s.N)
		st.Total += time.Duration(s.End - s.Start)
		st.Self += time.Duration(s.End - s.Start - child[s.ID])
		out[s.Name] = st
	}
	return out
}

// write dumps the spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	sorted := append([]span(nil), t.spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return f.Close()
}
