package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent 0 marks a root; spans of
// one operation share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// valid and records nothing, so untraced runs pay one nil check.
type tracer struct {
	t0  time.Time
	ids atomic.Int64
	mu  sync.Mutex
	all []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so children can name their parent before the
// parent ends. It returns 0 on a nil tracer.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under an ID from id.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.all = append(t.all, s)
	t.mu.Unlock()
}

// do runs f inside a span and returns its duration.
func (t *tracer) do(parent, req int64, name string, f func(id int64)) time.Duration {
	id := t.id()
	start := time.Now()
	f(id)
	end := time.Now()
	t.record(id, parent, req, name, start, end)
	return end.Sub(start)
}

func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.all...)
}

// selfTimes reduces spans to self time: each span's duration minus the
// part of it that its children's spans cover. Concurrent children are
// merged first, so a span's self time is never negative and the self
// times of a span and its children add up to the span's duration.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = time.Duration(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of the
// intervals.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerSelf sums self time per layer (the span name up to its first
// dot).
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// spanFile is the written form of a traced run.
type spanFile struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	SelfNsLayer map[string]int64 `json:"self_ns_by_layer"`
	Spans       []span           `json:"spans"`
}

// write stores the spans and their per-layer self times as JSON.
func (t *tracer) write(path, workload string, seed int64, self map[string]time.Duration) error {
	f := spanFile{Workload: workload, Seed: seed, SelfNsLayer: map[string]int64{}, Spans: t.spans()}
	for l, d := range self {
		f.SelfNsLayer[l] = d.Nanoseconds()
	}
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
