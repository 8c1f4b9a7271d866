package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// span is one boundary-to-boundary interval on the benchmark's clock
// (nanoseconds since the run's base instant). Spans of one frame, report
// or request share (pole, seq); parent names the span of that identifier
// that caused this one ("" for a root).
type span struct {
	name, parent string
	start, end   int64
	pole         uint32
	seq          uint64
}

// chunkLog is an append-only log that grows a fixed-size chunk at a
// time. The generators' high-rate logs (a record per report, two spans
// per report) use it because growing a slice of tens of megabytes copies
// it in one step that cannot be preempted, and in the middle of a window
// that stalls every goroutine of the process, the system under test
// included, for as long as the copy takes.
type chunkLog[T any] struct {
	chunks [][]T
	n      int
}

const (
	chunkBits = 14
	chunkMask = 1<<chunkBits - 1
)

func (l *chunkLog[T]) append(v T) {
	if l.n>>chunkBits == len(l.chunks) {
		l.chunks = append(l.chunks, make([]T, 1<<chunkBits))
	}
	l.chunks[l.n>>chunkBits][l.n&chunkMask] = v
	l.n++
}

func (l *chunkLog[T]) at(i int) *T { return &l.chunks[i>>chunkBits][i&chunkMask] }

// flat copies the log into one slice.
func (l *chunkLog[T]) flat() []T {
	out := make([]T, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c[:min(len(c), l.n-len(out))]...)
	}
	return out
}

// tracer collects spans in memory while switched on and writes them out
// as JSON lines afterwards. Switched off, add is one atomic load.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans chunkLog[span]
}

func newTracer() *tracer { return &tracer{} }

func (t *tracer) add(name, parent string, pole uint32, seq uint64, start, end int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans.append(span{name: name, parent: parent, start: start, end: end, pole: pole, seq: seq})
	t.mu.Unlock()
}

// write emits one JSON object per span, in recording order.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans.flat() {
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%q,"id":"%d/%d"}`+"\n",
			s.name, s.start, s.end, s.parent, s.pole, s.seq)
	}
	return w.Flush()
}

// selfTime is a span's duration minus the part of it its children cover:
// overlapping children count once, and a child reaching outside the
// parent counts only for the part inside.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := int64(0), parent.start
	for _, v := range ivs {
		if v.b <= edge {
			continue
		}
		covered += v.b - max(v.a, edge)
		edge = v.b
	}
	return parent.end - parent.start - covered
}
