package main

import (
	"bufio"
	"os"
	"strconv"
	"time"
)

// A span is one timed call from the benchmark into the program: a
// client operation of the traced window, or one ladder probe sample.
// Times are nanoseconds since the run's epoch.
type span struct {
	start, end int64
	name       uint16 // index into spanBuf.names
	seq        uint32
}

// spanBuf is one goroutine's preallocated span store. When it is full
// further spans are counted, not kept: the operation histograms still
// see every operation, the file holds the first cap(spans) of them.
type spanBuf struct {
	names   []string
	parent  string
	owner   int
	spans   []span
	dropped uint64
}

// spansPerClient bounds the trace file: sim_walk completes millions of
// operations per window, and a span costs ~90 bytes once written.
const spansPerClient = 1 << 16

func newSpanBuf(owner int, parent string, names []string) *spanBuf {
	return &spanBuf{names: names, parent: parent, owner: owner, spans: make([]span, 0, spansPerClient)}
}

func (b *spanBuf) add(name int, seq uint32, start, end int64) {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{start: start, end: end, name: uint16(name), seq: seq})
}

// epoch is the zero of every span time and latency in this process.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// writeTrace writes the root spans and every buffered span as one JSON
// object per line: name, id (owner#seq), parent, start_ns, end_ns.
func writeTrace(path string, roots []rootSpan, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	line := make([]byte, 0, 160)
	emit := func(name, id, parent string, start, end int64) {
		line = append(line[:0], `{"name":`...)
		line = strconv.AppendQuote(line, name)
		line = append(line, `,"id":`...)
		line = strconv.AppendQuote(line, id)
		line = append(line, `,"parent":`...)
		line = strconv.AppendQuote(line, parent)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, end, 10)
		line = append(line, "}\n"...)
		w.Write(line)
	}
	for _, r := range roots {
		emit(r.name, r.name, r.parent, r.start, r.end)
	}
	for _, b := range bufs {
		owner := strconv.Itoa(b.owner)
		for _, s := range b.spans {
			emit(b.names[s.name], owner+"#"+strconv.FormatUint(uint64(s.seq), 10), b.parent, s.start, s.end)
		}
		if b.dropped > 0 {
			emit("dropped:"+strconv.FormatUint(b.dropped, 10), owner+"#dropped", b.parent, 0, 0)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rootSpan is a span other spans name as their parent: the workload's
// windows and the ladder.
type rootSpan struct {
	name, parent string
	start, end   int64
}
