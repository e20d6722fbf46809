package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer of the simulator.
// Spans nest by call: Parent is the span that was open when this one
// started (0 at the top level). Attrs carry the counts the call returned,
// so every per-layer metric is a function of the span list alone.
type span struct {
	ID       int            `json:"id"`
	Parent   int            `json:"parent"`
	Name     string         `json:"name"`
	StartNS  int64          `json:"start_ns"`
	EndNS    int64          `json:"end_ns"`
	Workload string         `json:"workload"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// num returns a numeric attribute (0 when absent). Attributes read back
// from a span file decode as float64; in-process ones are stored that way.
func (s *span) num(key string) float64 {
	v, _ := s.Attrs[key].(float64)
	return v
}

func (s *span) str(key string) string {
	v, _ := s.Attrs[key].(string)
	return v
}

// tracer records spans in memory from the child's one driving goroutine;
// they are written out only when the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing cost.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	open     []int // indexes into spans of the spans not yet ended
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// spanRef is a handle on an open span.
type spanRef struct {
	t *tracer
	i int
}

// start opens a span as a child of the innermost open span.
func (t *tracer) start(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: t.now(), Workload: t.workload,
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return spanRef{t: t, i: i}
}

// end closes the span with alternating key, value attributes. Numbers of
// any integer or float type are stored as float64.
func (r spanRef) end(kv ...any) {
	if r.t == nil {
		return
	}
	s := &r.t.spans[r.i]
	s.EndNS = r.t.now()
	for k := 0; k+1 < len(kv); k += 2 {
		if s.Attrs == nil {
			s.Attrs = make(map[string]any)
		}
		s.Attrs[kv[k].(string)] = attrValue(kv[k+1])
	}
	open := r.t.open
	if n := len(open); n == 0 || open[n-1] != r.i {
		panic(fmt.Sprintf("bench: span %q ended out of order", s.Name))
	}
	r.t.open = open[:len(open)-1]
}

func attrValue(v any) any {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case float64, string:
		return x
	}
	panic(fmt.Sprintf("bench: unsupported span attribute %T", v))
}

// writeSpans writes one JSON object per span to dir/<workload>.spans.jsonl.
func writeSpans(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// selfTimes returns each span's duration minus the union of its children's
// intervals (clipped to the span), keyed by span ID. Children of one span
// may overlap when the calls they time ran concurrently.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.StartNS, s.EndNS, kids[s.ID])
	}
	return self
}

// covered is the length of the union of ivs within [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
