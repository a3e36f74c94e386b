package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start, end and the span
// that caused it (0 for a root). Times are offsets from the recorder's
// origin, so spans of one run compare directly.
type span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanRecorder keeps a run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs pass nil and pay one nil
// check per call. Safe for concurrent use.
type spanRecorder struct {
	run    string
	origin time.Time
	limit  int

	mu      sync.Mutex
	spans   []span
	dropped int
}

// newSpanRecorder returns a recorder for the run named run, keeping at
// most limit spans (later ones are counted as dropped).
func newSpanRecorder(run string, limit int) *spanRecorder {
	return &spanRecorder{run: run, origin: time.Now(), limit: limit}
}

// now returns the offset of the current instant from the origin.
func (r *spanRecorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.origin)
}

// add records a finished span and returns its ID (0 when dropped or r
// is nil; a child of span 0 is a root).
func (r *spanRecorder) add(name string, parent int, start, end time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// open records a span that starts now and returns its ID; close ends it.
func (r *spanRecorder) open(name string, parent int) int {
	if r == nil {
		return 0
	}
	t := r.now()
	return r.add(name, parent, t, t)
}

// close ends the span id at the current instant.
func (r *spanRecorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// timed runs fn inside a span named name under parent.
func (r *spanRecorder) timed(name string, parent int, fn func(id int) error) error {
	id := r.open(name, parent)
	err := fn(id)
	r.close(id)
	return err
}

// snapshot returns a copy of the recorded spans.
func (r *spanRecorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes the spans, one JSON object a line, to path.
func (r *spanRecorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(map[string]any{
			"run": r.run, "id": s.ID, "parent": s.Parent, "name": s.Name,
			"start_ns": s.Start.Nanoseconds(), "end_ns": s.End.Nanoseconds(),
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once.
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end time.Duration
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// reconciliation is one workload's row: where the traced run's time
// went, set against the untraced run's end-to-end total.
type reconciliation struct {
	Workload string
	// Layers is the summed self time of every span under the root,
	// by span name. Parallel layers can sum past the wall time.
	Layers map[string]time.Duration
	// LayerSum is the total of Layers.
	LayerSum time.Duration
	// Traced is the root span's duration; Untraced the same work's
	// end-to-end time with tracing off.
	Traced, Untraced time.Duration
	// Remainder is the root's self time: the part of the traced total
	// no layer span covers.
	Remainder time.Duration
	// Overhead is Traced minus Untraced.
	Overhead time.Duration
}

// reconcile builds the reconciliation row for the tree under root.
func reconcile(workload string, spans []span, root int, untraced time.Duration) reconciliation {
	self := selfTimes(spans)
	parent := map[int]int{}
	var rootSpan span
	for _, s := range spans {
		parent[s.ID] = s.Parent
		if s.ID == root {
			rootSpan = s
		}
	}
	under := func(id int) bool {
		for p := parent[id]; p != 0; p = parent[p] {
			if p == root {
				return true
			}
		}
		return false
	}
	rec := reconciliation{
		Workload: workload,
		Layers:   map[string]time.Duration{},
		Traced:   rootSpan.dur(),
		Untraced: untraced,
	}
	for _, s := range spans {
		if under(s.ID) {
			rec.Layers[s.Name] += self[s.ID]
			rec.LayerSum += self[s.ID]
		}
	}
	rec.Remainder = self[root]
	rec.Overhead = rec.Traced - rec.Untraced
	return rec
}

// String renders the row for the benchmark's stdout.
func (r reconciliation) String() string {
	names := make([]string, 0, len(r.Layers))
	for n := range r.Layers {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("reconcile %s: layers=%.3fs traced=%.3fs untraced=%.3fs remainder=%.3fs overhead=%+.3fs |",
		r.Workload, r.LayerSum.Seconds(), r.Traced.Seconds(), r.Untraced.Seconds(),
		r.Remainder.Seconds(), r.Overhead.Seconds())
	for _, n := range names {
		s += fmt.Sprintf(" %s=%.3fs", n, r.Layers[n].Seconds())
	}
	return s
}
