package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// or one crawled address share Key; Parent links a span to the span
// whose call caused it (0 for a pass's root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps a traced pass's spans in memory. A nil *recorder is
// the untraced pass: every method is a no-op, so the wrappers stay in
// place and only the recording differs between the two passes.
type recorder struct {
	origin time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

type spanCtxKey struct{}

// spanRef is the span a context carries.
type spanRef struct {
	id  uint64
	key string
}

// open starts a span under the one ctx carries and returns a context
// carrying the new span. An empty key inherits the parent's.
func (r *recorder) open(ctx context.Context, name, key string) (context.Context, *openSpan) {
	if r == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanRef)
	if key == "" {
		key = parent.key
	}
	sp := &openSpan{r: r, s: span{Name: name, ID: r.next.Add(1), Parent: parent.id, Key: key,
		Start: int64(time.Since(r.origin))}}
	return context.WithValue(ctx, spanCtxKey{}, spanRef{sp.s.ID, key}), sp
}

// add records an already-timed interval.
func (r *recorder) add(name, key string, parent uint64, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, ID: r.next.Add(1), Parent: parent, Key: key,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the spans recorded since the last take and forgets
// them. Ids and times stay unique across takes, so the spans of a whole
// pass join up in one dump.
func (r *recorder) take() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

type openSpan struct {
	r *recorder
	s span
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.origin))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	count     int
	total     time.Duration
	self      time.Duration
	durations []float64 // seconds
}

// ledger aggregates spans by name. A span's self time is its duration
// minus the part of it its children cover.
func ledger(spans []span) map[string]*spanStats {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.count++
		st.total += s.dur()
		st.self += s.dur() - covered(s, children[s.ID])
		st.durations = append(st.durations, s.dur().Seconds())
	}
	return out
}

// covered is how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

// writeLedger prints each layer's span count, total and self time.
func writeLedger(w io.Writer, spans []span) {
	l := ledger(spans)
	names := make([]string, 0, len(l))
	for n := range l {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\ttotal_s\tself_s\t")
	for _, n := range names {
		st := l[n]
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\t\n", n, st.count, st.total.Seconds(), st.self.Seconds())
	}
	tw.Flush()
}

// dumpSpans writes one JSON span per line.
func dumpSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
