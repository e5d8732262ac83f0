package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded only
// from this package, around its calls into each layer; times are nanoseconds
// since the tracer was created. Parent is the ID of the span that caused
// this one (0 for a root) and Sweep ties together the spans of one sweep.
type span struct {
	ID      int               `json:"id"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Parent  int               `json:"parent"`
	Sweep   int               `json:"sweep"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the timed (untraced) run shares the sweep code.
// Shard-completion callbacks arrive from worker goroutines, hence the lock.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, start, end int64, parent, sweep int, attrs map[string]string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, StartNS: start, EndNS: end, Parent: parent, Sweep: sweep, Attrs: attrs})
	return id
}

// open reserves a span whose end is not known yet, so children recorded
// while it runs can name it as their parent; close it with finish.
func (t *tracer) open(name string, parent, sweep int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	return t.add(name, start, start, parent, sweep, nil)
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// call records one span around fn.
func (t *tracer) call(name string, parent, sweep int, fn func()) {
	id := t.open(name, parent, sweep)
	fn()
	t.finish(id)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	enc, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other
// (shards of one sweep run in parallel) and may stick out of the parent (a
// shard span's start is derived from its elapsed time); the covered part is
// the union of the children clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.EndNS - s.StartNS) - covered(s.StartNS, s.EndNS, children[s.ID])
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of kids.
func covered(lo, hi int64, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNS, lo), min(k.EndNS, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// selfByName sums self time per span name, in nanoseconds.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}
