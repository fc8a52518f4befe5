package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Span is one timed interval of a traced run: a call into one layer made
// by the benchmark's own code. Work is the layer's unit-of-work count
// for the call (pairs, atoms, grid points, waters, ...), so per-unit
// costs are measured where the work happens.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Work   int64  `json:"work,omitempty"`
}

// Tracer records spans in memory; nested Begin/End calls build the
// parent links. The clock is injected so tests can script it.
type Tracer struct {
	now   func() int64
	spans []Span
	open  []int32
}

// NewTracer returns an empty tracer reading time from now (ns).
func NewTracer(now func() int64) *Tracer {
	return &Tracer{now: now, spans: make([]Span, 0, 1<<14)}
}

// Begin opens a span as a child of the innermost open span.
func (t *Tracer) Begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

// End closes span id, which must be the innermost open span, and records
// the work it did.
func (t *Tracer) End(id int32, work int64) {
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.spans[id].End = t.now()
	t.spans[id].Work = work
	t.open = t.open[:n-1]
}

// Spans returns the recorded spans (read-only).
func (t *Tracer) Spans() []Span { return t.spans }

// SelfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Overlapping children are
// counted once and clipped to the parent's interval.
func SelfTimes(spans []Span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func covered(spans []Span, parent Span, kids []int32) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// LayerStat aggregates the spans sharing one path.
type LayerStat struct {
	Count int
	Dur   int64 // summed durations, ns
	Self  int64 // summed self times, ns
	Work  int64 // summed work counts
}

// MeanMs is the mean span duration in milliseconds.
func (s LayerStat) MeanMs() float64 { return float64(s.Dur) / float64(max(s.Count, 1)) / 1e6 }

// NsPerWork is the summed duration per unit of work, in ns.
func (s LayerStat) NsPerWork() float64 { return float64(s.Dur) / float64(max(s.Work, 1)) }

// Summarize groups spans by their path, the '/'-joined names from the
// root span down ("replay/core/grid.conv"), so the same layer called
// under two parents stays apart.
func Summarize(spans []Span) map[string]LayerStat {
	self := SelfTimes(spans)
	paths := make([]string, len(spans))
	out := make(map[string]LayerStat)
	for i, s := range spans {
		p := s.Name
		if s.Parent >= 0 {
			p = paths[s.Parent] + "/" + s.Name
		}
		paths[i] = p
		st := out[p]
		st.Count++
		st.Dur += s.End - s.Start
		st.Self += self[i]
		st.Work += s.Work
		out[p] = st
	}
	return out
}

// Sum merges the stats of every path ending in suffix.
func Sum(stats map[string]LayerStat, suffix string) LayerStat {
	var tot LayerStat
	for p, s := range stats {
		if p == suffix || strings.HasSuffix(p, "/"+suffix) {
			tot.Count += s.Count
			tot.Dur += s.Dur
			tot.Self += s.Self
			tot.Work += s.Work
		}
	}
	return tot
}

// writeSpans stores the spans of a traced run as JSON under dir.
func writeSpans(dir, workload string, seed int64, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
