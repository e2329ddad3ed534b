package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the index of the enclosing span in the same tracer, -1 for the
// request's root.
type span struct {
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one replay goroutine in memory. When off, begin
// and end do nothing, so the same code measures the replay without spans.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
}

func (t *tracer) begin(req int64, parent int32, name string) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.base))})
	return id
}

// end closes span id and returns its duration (0 when the tracer is off).
func (t *tracer) end(id int32) time.Duration {
	if id < 0 {
		return 0
	}
	sp := &t.spans[id]
	sp.End = int64(time.Since(t.base))
	return time.Duration(sp.End - sp.Start)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval covered by its children. Children may overlap one another (work
// a span fans out); overlapping time is subtracted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if lo > curHi {
			total += curHi - curLo
			curLo, curHi = lo, hi
		} else if hi > curHi {
			curHi = hi
		}
	}
	return total + curHi - curLo
}

// writeSpans writes spans as JSON lines, renumbering each tracer's ids so
// they are unique in the file.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var offset int32
	for _, t := range tracers {
		for _, s := range t.spans {
			s.ID += offset
			if s.Parent >= 0 {
				s.Parent += offset
			}
			if err := enc.Encode(&s); err != nil {
				f.Close()
				return err
			}
		}
		offset += int32(len(t.spans))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
