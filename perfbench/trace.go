package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request share Req; Parent is the id of the span that caused it (0 for
// a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at exit. A
// nil *tracer records nothing, so untraced passes pay one nil check per
// call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	// The CPU profile and runtime/metrics readings cover the timed
	// region only: start begins it, and the workload calls stop where its
	// timed region ends, before checking outputs.
	prof          bytes.Buffer
	profiling     bool
	before, after runtimeSnap
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start() error {
	t.before = readRuntime()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return err
	}
	t.profiling = true
	return nil
}

func (t *tracer) stop() {
	if t == nil || !t.profiling {
		return
	}
	pprof.StopCPUProfile()
	t.after = readRuntime()
	t.profiling = false
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-finished span whose duration a layer reported
// (run.Progress.Wall): it ended now and lasted d.
func (t *tracer) record(name string, parent int, req int64, d time.Duration) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now - d.Nanoseconds(), End: now})
	t.mu.Unlock()
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Total, Self time.Duration
	selves      []time.Duration // each span's self time
}

// p50Self is the median self time of the name's spans.
func (s *spanStat) p50Self() time.Duration {
	if len(s.selves) == 0 {
		return 0
	}
	v := append([]time.Duration(nil), s.selves...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[len(v)/2]
}

// summarize computes each span's self time — its duration minus the
// part of it that its children cover — and aggregates by name.
func (t *tracer) summarize() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*spanStat{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		self := dur - covered(kids[s.ID], s.Start, s.End)
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.Total += time.Duration(dur)
		st.Self += time.Duration(self)
		st.selves = append(st.selves, time.Duration(self))
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	curS, curE := int64(-1), int64(-1)
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		sum += curE - curS
	}
	return sum
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
