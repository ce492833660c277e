package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mwmerge/internal/report"
	"mwmerge/internal/trace"
)

// span is one traced interval. Start and End are nanoseconds since the
// tracer's epoch, Parent the ID of the span that caused it (-1 for a
// root), Op the repetition or request it belongs to, and SelfNS its
// duration minus the part its children cover.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	SelfNS int64  `json:"self_ns"`
}

// tracer keeps the spans of a traced run in memory until it ends. The
// benchmark opens one around every call it makes into a layer's public
// function; a nil tracer (every untraced run) records nothing, so the
// end-to-end numbers are taken with no spans at all.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextOp int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns nanoseconds since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newOp allocates the identifier the spans of one repetition share.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its ID (-1 from a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start, End: start, Parent: parent, Op: op})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// recorderLaneRank orders the Recorder's lanes from outer to inner: an
// iteration contains phases, a phase contains its worker lanes.
func recorderLaneRank(lane string) int {
	switch {
	case lane == "iter":
		return 1
	case lane == "phase" || lane == "its":
		return 2
	default: // step1/w*, presort/g*, merge/g*
		return 3
	}
}

// importRecorder copies the engine Recorder's timeline spans under the
// core.* spans that enclose them. recEpoch is the tracer time at which
// the Recorder's clock started; roots are the IDs of the core.* spans
// the Recorder's engine ran under, which do not overlap. A Recorder
// span's parent is the narrowest span of a lower lane rank that holds
// its midpoint, the enclosing core span failing that.
func (t *tracer) importRecorder(rec *report.Recorder, recEpoch int64, roots []int) {
	recSpans := rec.Timeline().Spans()
	sort.SliceStable(recSpans, func(i, j int) bool {
		ri, rj := recorderLaneRank(recSpans[i].Lane), recorderLaneRank(recSpans[j].Lane)
		if ri != rj {
			return ri < rj
		}
		return recSpans[i].Start < recSpans[j].Start
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	type placed struct {
		id, rank int
	}
	under := make(map[int][]placed) // root ID → imported spans so far
	for _, rs := range recSpans {
		start, end := recEpoch+int64(rs.Start), recEpoch+int64(rs.End)
		mid := start + (end-start)/2
		root := -1
		for _, id := range roots {
			if t.spans[id].Start <= mid && mid <= t.spans[id].End {
				root = id
				break
			}
		}
		if root < 0 {
			continue // outside every traced call (engine warm-up)
		}
		rank := recorderLaneRank(rs.Lane)
		parent := root
		for _, p := range under[root] {
			ps := t.spans[p.id]
			if p.rank < rank && ps.Start <= mid && mid <= ps.End &&
				(parent == root || ps.End-ps.Start < t.spans[parent].End-t.spans[parent].Start) {
				parent = p.id
			}
		}
		// The two clocks were read a few nanoseconds apart; clamp so a
		// child never leaves its parent.
		if ps := t.spans[parent]; start < ps.Start {
			start = ps.Start
		} else if end > ps.End {
			end = ps.End
		}
		id := len(t.spans)
		t.spans = append(t.spans, span{ID: id, Name: rs.Lane + ":" + rs.Name, Start: start, End: end, Parent: parent, Op: t.spans[root].Op})
		under[root] = append(under[root], placed{id, rank})
	}
}

// finish computes every span's self time: its duration minus the union
// of its children's intervals, so parallel child lanes count by their
// makespan and not by their sum.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfNS = s.End - s.Start - covered
	}
}

// snapshot returns a copy of the spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// laneWall returns the makespan, in milliseconds, of the spans in
// recSpans whose lane starts with prefix and that lie inside [lo, hi]:
// last end minus first start. Zero when there are none.
func laneWall(recSpans []trace.Span, prefix string, lo, hi uint64) float64 {
	var first, last uint64
	found := false
	for _, s := range recSpans {
		if !strings.HasPrefix(s.Lane, prefix) || s.Start < lo || s.End > hi {
			continue
		}
		if !found || s.Start < first {
			first = s.Start
		}
		if s.End > last {
			last = s.End
		}
		found = true
	}
	return float64(last-first) / 1e6
}

// laneBusy returns the summed duration, in milliseconds, of the spans
// whose lane starts with prefix inside [lo, hi].
func laneBusy(recSpans []trace.Span, prefix string, lo, hi uint64) float64 {
	var busy uint64
	for _, s := range recSpans {
		if strings.HasPrefix(s.Lane, prefix) && s.Start >= lo && s.End <= hi {
			busy += s.End - s.Start
		}
	}
	return float64(busy) / 1e6
}
