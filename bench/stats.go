package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// percentile returns the ceil-based nearest-rank p-quantile of sorted
// (ascending) samples; 0 for an empty set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// supported reports whether n samples leave at least ten beyond the p-th
// percentile — the rule for which percentiles may be reported.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10-1e-9
}

// dist is a set of duration samples in nanoseconds.
type dist struct {
	ns     []float64
	sorted bool
}

func (d *dist) add(ns float64) { d.ns = append(d.ns, ns); d.sorted = false }

func (d *dist) n() int { return len(d.ns) }

// q returns the p-quantile in nanoseconds.
func (d *dist) q(p float64) float64 {
	if !d.sorted {
		sort.Float64s(d.ns)
		d.sorted = true
	}
	return percentile(d.ns, p)
}

func (d *dist) mean() float64 {
	if len(d.ns) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d.ns {
		s += v
	}
	return s / float64(len(d.ns))
}

func (d *dist) merge(o *dist) { d.ns = append(d.ns, o.ns...); d.sorted = false }

// spanKind names a layer boundary the traced pass records.
type spanKind uint8

const (
	spRequest spanKind = iota // one document / request, open to close
	spOpen
	spStep // parent of accept + jump_forward + fill in the split decode
	spAccept
	spJumpForward
	spFill
	spRollback
	spFusedStep
	spFillBatch
	spRound
	spCompile
	spClose
	spTTFT   // gateway client: request write to first generated event
	spStream // gateway client: first generated event to end of stream
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"request", "serve.open", "decode.step", "matcher.accept", "matcher.jump_forward",
	"maskcache.fill", "matcher.rollback", "session.step", "serve.fill_batch", "batch.round",
	"xgrammar.compile", "serve.close", "client.ttft", "client.stream",
}

// span is one timed interval at a layer boundary. Spans of one request share
// req; parent is the index (in the same recorder) of the span that caused
// this one, -1 for a root.
type span struct {
	kind       spanKind
	parent     int32
	req        int32
	start, end int64 // ns since the recorder's epoch
}

// recorder keeps one goroutine's spans in memory; nothing is written until
// the benchmark ends. It stops recording when its buffer is full, so a
// traced pass has bounded memory however fast the layer under it is.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time, capacity int) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, capacity)}
}

// room reports whether at least n more spans fit.
func (r *recorder) room(n int) bool { return len(r.spans)+n <= cap(r.spans) }

// begin opens a span and returns its index; end closes it. Callers check
// room first.
func (r *recorder) begin(kind spanKind, parent, req int32) int32 {
	r.spans = append(r.spans, span{kind: kind, parent: parent, req: req, start: int64(time.Since(r.epoch))})
	return int32(len(r.spans) - 1)
}

func (r *recorder) end(i int32) { r.spans[i].end = int64(time.Since(r.epoch)) }

// selfTimes returns, per span, its duration minus the part its child spans
// cover. Children of one parent come from one goroutine and do not overlap,
// so the covered part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// byKind collects span durations per kind.
func byKind(spans []span) [numSpanKinds]dist {
	var out [numSpanKinds]dist
	for _, s := range spans {
		out[s.kind].add(float64(s.end - s.start))
	}
	return out
}

// writeSpans dumps every recorder's spans as tab-separated lines:
// recorder, index, parent, request, name, start_ns, end_ns, self_ns.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for ri, r := range recs {
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\n", ri, i, s.parent, s.req, spanNames[s.kind], s.start, s.end, self[i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maskFingerprint folds token masks into an FNV-1a style 64-bit hash, one
// multiply per word (a byte-wise FNV over 4 KB masks would dominate the
// walk it fingerprints).
type maskFingerprint uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func (f *maskFingerprint) add(mask []uint64) {
	h := uint64(*f)
	if h == 0 {
		h = fnvOffset64
	}
	for _, w := range mask {
		h = (h ^ w) * fnvPrime64
	}
	*f = maskFingerprint(h)
}

// maskHas reports whether token id is allowed by mask.
func maskHas(mask []uint64, id int32) bool {
	w := int(id >> 6)
	return id >= 0 && w < len(mask) && mask[w]&(1<<uint(id&63)) != 0
}
