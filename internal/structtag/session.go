package structtag

import (
	"errors"
	"fmt"
	"time"

	"xgrammar/internal/bitset"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
)

// SegmentSpan records one completed constrained segment (enterTag to
// leaveTag) for the request tracer: which tag ran and when. Spans are
// best-effort observability — a rollback that retracts a completed segment
// does not remove its span — and the window is bounded by maxSegmentSpans.
type SegmentSpan struct {
	Tag   int
	Start time.Time
	Dur   time.Duration
}

// maxSegmentSpans bounds the per-session span window; tool-calling outputs
// run a handful of segments, so 32 covers real requests while capping the
// cost of pathological ones.
const maxSegmentSpans = 32

// Session is one generation driven through the dispatcher. Like a
// serve.Session it owns its mask buffer, is driven from one goroutine, and
// returns to its pool on Close. It has the same step surface as a
// serve.Session (Step/Fill/JumpForward/AcceptString and the speculative
// decoder's Sequencer), so every decode mode — plain, overlapped batch fill,
// jump-forward insertion, speculative draft-verify — works unchanged on top
// of structural-tag dispatch.
type Session struct {
	ts *Set
	// mode is -1 in free text, else the index of the active tag.
	mode int
	// seg is the active segment session (nil in free text).
	seg *serve.Session
	// cands are the live trigger-trie nodes: one per begin-tag prefix the
	// stream currently ends with, ordered oldest start first (so the
	// longest match wins a simultaneous completion).
	cands, candsNext []int32

	// bytes is the full accepted stream; rollbacks truncate it and the
	// replay slow path re-feeds it. steps is the checkpoint ring over the
	// last maxHistory accepted steps.
	bytes    []byte
	steps    []stepRec
	stepHead int // ring index of the next write
	stepLen  int
	// freeStart is the byte offset where the current free-text run began
	// (0, or just past the last segment's end tag). Trigger candidates can
	// only start at or after it — earlier bytes belonged to a segment and
	// never fed the trie.
	freeStart int

	mask       []uint64
	bs         *bitset.Bitset
	jf         []byte
	dirty      bool
	lastStats  maskcache.FillStats
	terminated bool

	// spans records completed segments for the tracer; segStart stamps the
	// active segment's entry. replaying suppresses recording while replayTo
	// re-feeds already-accepted bytes, so rollback slow paths never double-
	// record a segment.
	spans     []SegmentSpan
	segStart  time.Time
	replaying bool
}

// SegmentSpans returns the completed-segment spans recorded so far (up to
// maxSegmentSpans). The slice is owned by the session; valid until Close.
func (s *Session) SegmentSpans() []SegmentSpan { return s.spans }

// TagIndex returns the active tag index, or -1 in free-text mode.
func (s *Session) TagIndex() int { return s.mode }

// InTag reports whether the session is inside a constrained tag segment.
func (s *Session) InTag() bool { return s.mode >= 0 }

// Bytes returns the accepted stream so far (valid until the next call).
func (s *Session) Bytes() []byte { return s.bytes }

// errTerminated is preconstructed so the hot-path Accept does not box a
// format call on its error checks.
var errTerminated = errors.New("structtag: session already terminated")

// errStopInSegment and errSpecialToken keep fmt off the annotated Accept
// body; both run only on requests that are already failing.
func (s *Session) errStopInSegment() error {
	return fmt.Errorf("structtag: stop token inside a %q segment", s.ts.tags[s.mode].Begin)
}

func errSpecialToken(id int32) error {
	return fmt.Errorf("structtag: special token %d not allowed", id)
}

// Accept advances the session by one generated token. In free-text mode the
// token's bytes stream through the trigger trie (entering a tag segment the
// moment a begin tag completes, mid-token included); inside a segment they
// must advance the segment grammar. The stop token is only legal in
// free-text mode. On error the session is unchanged.
//
//xg:hotpath
func (s *Session) Accept(id int32) error {
	if s.terminated {
		return errTerminated
	}
	if id == tokenizer.EosID {
		if s.mode >= 0 {
			return s.errStopInSegment()
		}
		s.terminated = true
		s.bs.ClearAll()
		s.dirty = false
		s.lastStats = maskcache.FillStats{}
		return nil
	}
	if s.ts.tok.IsSpecial(id) {
		return errSpecialToken(id)
	}
	return s.acceptBytes(s.ts.tok.TokenBytes(id))
}

// AcceptString advances the session by raw bytes as one checkpoint (prompt
// priming, forced tag openings, jump-forward insertion). On error the
// session is unchanged.
func (s *Session) AcceptString(text string) error {
	if s.terminated {
		return fmt.Errorf("structtag: session already terminated")
	}
	return s.acceptBytes([]byte(text))
}

// acceptBytes runs one checkpointed step over the byte processor, restoring
// the pre-step state on failure.
func (s *Session) acceptBytes(b []byte) error {
	mark := len(s.bytes)
	rec, err := s.process(b)
	if err != nil {
		s.replayTo(mark)
		return err
	}
	s.pushStep(rec)
	s.dirty = true
	return nil
}

// process feeds bytes through the dispatcher: trie matching in free text,
// segment-grammar advances inside a tag, with mode transitions allowed
// mid-chunk in both directions. It appends to s.bytes as it goes and
// returns the step record.
func (s *Session) process(b []byte) (stepRec, error) {
	var rec stepRec
	i := 0
	for i < len(b) {
		if s.mode < 0 {
			ch := b[i]
			i++
			s.bytes = append(s.bytes, ch)
			rec.nbytes++
			if tag := s.feedTrie(ch); tag >= 0 {
				s.enterTag(tag)
				rec.transition = true
			}
			continue
		}
		// Inside a segment: feed the longest chunk the grammar takes. The
		// in-tag mask only admits tokens that stay inside the segment, so
		// the whole remaining chunk normally lands in one checkpoint; the
		// byte-at-a-time fallback handles teacher-forced tokens that span
		// the segment end.
		chunk := b[i:]
		if err := s.seg.AcceptBytes(chunk); err == nil {
			i += len(chunk)
			s.bytes = append(s.bytes, chunk...)
			rec.nbytes += int32(len(chunk))
			rec.segSteps++
			if s.segComplete() {
				s.leaveTag()
				rec.transition = true
			}
			continue
		}
		n, segSteps, err := s.feedSegmentBytewise(chunk)
		i += n
		rec.nbytes += int32(n)
		rec.segSteps += segSteps
		if err != nil {
			return rec, err
		}
		rec.transition = true // bytewise feed always ends by leaving the tag
	}
	return rec, nil
}

// feedSegmentBytewise advances the segment one byte at a time until it
// completes (returning how many bytes were consumed), for chunks that cross
// the segment end. A byte the segment rejects before completing fails the
// step.
func (s *Session) feedSegmentBytewise(chunk []byte) (int, int32, error) {
	var segSteps int32
	for n := 0; n < len(chunk); n++ {
		if err := s.seg.AcceptBytes(chunk[n : n+1]); err != nil {
			return n, segSteps, fmt.Errorf("structtag: byte %q violates the %q segment grammar: %w",
				chunk[n], s.ts.tags[s.mode].Begin, err)
		}
		segSteps++
		s.bytes = append(s.bytes, chunk[n])
		if s.segComplete() {
			s.leaveTag()
			return n + 1, segSteps, nil
		}
	}
	// The chunk was rejected as a whole but accepted byte-wise without
	// completing — impossible for a deterministic matcher; fail loudly.
	return len(chunk), segSteps, fmt.Errorf("structtag: inconsistent segment advance")
}

// feedTrie advances the trigger candidates by one byte and returns the
// completed tag index, or -1. Candidates stay ordered oldest-first, so when
// two begin tags complete on the same byte the longer (earlier-started)
// match wins.
func (s *Session) feedTrie(ch byte) int {
	tr := s.ts.trie
	next := s.candsNext[:0]
	done := -1
	for _, c := range s.cands {
		n := tr.Step(c, ch)
		if n < 0 {
			continue
		}
		if t := tr.Token(n); t >= 0 && done < 0 {
			done = int(t)
		}
		next = append(next, n)
	}
	if n := tr.Step(tr.Root(), ch); n >= 0 {
		if t := tr.Token(n); t >= 0 && done < 0 {
			done = int(t)
		}
		next = append(next, n)
	}
	s.cands, s.candsNext = next, s.cands
	return done
}

// enterTag switches into the tag's segment grammar.
func (s *Session) enterTag(tag int) {
	s.seg = s.ts.tags[tag].Pool.Acquire()
	s.mode = tag
	s.cands = s.cands[:0]
	if !s.replaying {
		//xg:allow noclock: segment entry is a rare mode transition, stamped once per tag, not per token
		s.segStart = time.Now()
	}
}

// leaveTag returns to free text, releasing the segment session. Rollbacks
// into the finished segment take the replay slow path, which re-acquires a
// fresh pooled session.
func (s *Session) leaveTag() {
	if !s.replaying && len(s.spans) < maxSegmentSpans {
		s.spans = append(s.spans, SegmentSpan{
			//xg:allow noclock: segment exit is a rare mode transition, stamped once per tag, not per token
			Tag: s.mode, Start: s.segStart, Dur: time.Since(s.segStart),
		})
	}
	s.seg.Close()
	s.seg = nil
	s.mode = -1
	s.freeStart = len(s.bytes)
}

// segComplete reports whether the active segment grammar has consumed its
// end tag: it can terminate and no byte can extend it. The mask probe rides
// the segment session's idempotent Fill, so the completion check and the
// next decode step share one mask computation.
func (s *Session) segComplete() bool {
	if !s.seg.CanTerminate() {
		return false
	}
	s.seg.Fill()
	eos := tokenizer.EosID
	for w, word := range s.seg.Mask() {
		if int32(w) == eos>>6 {
			word &^= 1 << uint(eos&63)
		}
		if word != 0 {
			return false
		}
	}
	return true
}

// Fill computes the allowed-token mask for the next decoding step: the
// free-text mask template (every regular token plus EOS) in free mode, the
// segment grammar's mask with EOS cleared inside a tag. Like serve.Session,
// Fill is idempotent between accepts.
func (s *Session) Fill() maskcache.FillStats {
	st, _ := s.FillTracked()
	return st
}

// FillTracked is Fill additionally reporting whether this call did the mask
// work (computed is false for the idempotent no-op), mirroring
// serve.Session.FillTracked so the engine's fill counters see both session
// kinds uniformly.
//
//xg:hotpath
func (s *Session) FillTracked() (maskcache.FillStats, bool) {
	if !s.dirty {
		return s.lastStats, false
	}
	if s.mode < 0 {
		copy(s.mask, s.ts.freeWords)
		// A template memcpy is the same fast path a fully context-independent
		// grammar state takes; Accepted is the precomputed template popcount.
		s.lastStats = maskcache.FillStats{Accepted: s.ts.freeCount, FastPath: true}
	} else {
		s.lastStats = s.seg.Fill()
		copy(s.mask, s.seg.Mask())
		eos := tokenizer.EosID
		if s.mask[eos>>6]&(1<<uint(eos&63)) != 0 {
			s.mask[eos>>6] &^= 1 << uint(eos&63)
			s.lastStats.Accepted--
		}
	}
	s.dirty = false
	return s.lastStats, true
}

// Mask returns the session's mask buffer; valid until the next Step/Fill.
func (s *Session) Mask() []uint64 { return s.mask }

// Step is the fused per-token call: accept, probe the jump-forward
// continuation, fill the next mask.
//
//xg:hotpath
func (s *Session) Step(id int32) (serve.StepResult, error) {
	var res serve.StepResult
	if err := s.Accept(id); err != nil {
		return res, err
	}
	if s.terminated {
		res.Terminated = true
		return res, nil
	}
	s.jf = s.jumpForwardAppend(s.jf)
	res.JumpForward = s.jf
	res.Stats = s.Fill()
	return res, nil
}

// JumpForward returns the deterministic continuation inside the active tag
// segment (JSON structure, forced keys, the end tag itself), or "" in free
// text — free text is never deterministic.
func (s *Session) JumpForward() string {
	if s.terminated || s.mode < 0 {
		return ""
	}
	return s.seg.JumpForward()
}

func (s *Session) jumpForwardAppend(dst []byte) []byte {
	if s.terminated || s.mode < 0 {
		return dst[:0]
	}
	return s.seg.JumpForwardAppend(dst)
}

// CanTerminate reports whether EOS is currently legal: free text only.
func (s *Session) CanTerminate() bool { return !s.terminated && s.mode < 0 }

// IsTerminated reports whether the stop token has been accepted.
func (s *Session) IsTerminated() bool { return s.terminated }

// HistoryCap returns the rollback window in accepted steps.
func (s *Session) HistoryCap() int { return len(s.steps) }

// HistoryLen returns the number of steps currently retractable.
func (s *Session) HistoryLen() int { return s.stepLen }

// pushStep appends a checkpoint to the ring, dropping the oldest once full.
func (s *Session) pushStep(rec stepRec) {
	s.steps[s.stepHead] = rec
	s.stepHead = (s.stepHead + 1) % len(s.steps)
	if s.stepLen < len(s.steps) {
		s.stepLen++
	}
}

// stepAt returns the i-th most recent step record (i in [1, stepLen]).
func (s *Session) stepAt(i int) *stepRec {
	idx := s.stepHead - i
	if idx < 0 {
		idx += len(s.steps)
	}
	return &s.steps[idx]
}

// Rollback undoes the last n Accept/AcceptString calls. It is atomic: on
// error (n exceeds the retained history) the session is unchanged. Windows
// that stay on one side of a mode transition retract through the segment
// matcher's checkpoint history; windows crossing a transition replay the
// retained byte stream.
func (s *Session) Rollback(n int) error {
	steps := n
	if s.terminated && steps > 0 {
		steps-- // undoing the terminating EOS costs no dispatcher step
	}
	if steps > s.stepLen {
		return fmt.Errorf("structtag: rollback %d exceeds retained history %d", steps, s.stepLen)
	}
	if steps > 0 {
		var nbytes, segSteps int32
		crossing := false
		for i := 1; i <= steps; i++ {
			r := s.stepAt(i)
			nbytes += r.nbytes
			segSteps += r.segSteps
			if r.transition {
				crossing = true
			}
		}
		target := len(s.bytes) - int(nbytes)
		fast := !crossing
		if fast && s.mode >= 0 && segSteps > 0 {
			fast = s.seg.Rollback(int(segSteps)) == nil
		}
		if fast {
			s.bytes = s.bytes[:target]
			s.popSteps(steps)
			if s.mode < 0 {
				s.rescanCandidates()
			}
			s.dirty = true
		} else {
			s.popSteps(steps)
			s.replayTo(target)
		}
	}
	if s.terminated && n > 0 {
		s.terminated = false
		s.dirty = true
	}
	return nil
}

// popSteps drops the newest n records from the ring.
func (s *Session) popSteps(n int) {
	s.stepHead -= n
	if s.stepHead < 0 {
		s.stepHead += len(s.steps)
	}
	s.stepLen -= n
}

// rescanCandidates rebuilds the trigger-trie candidates from the byte tail
// after a free-text truncation: only suffixes shorter than the longest
// begin tag can be live prefixes, and none may start before the current
// free-text run — bytes inside a just-closed segment (its content and end
// tag) never fed the trie, so resurrecting candidates from them would make
// a rolled-back session diverge from a straight decode of the same bytes.
func (s *Session) rescanCandidates() {
	s.cands = s.cands[:0]
	start := len(s.bytes) - (s.ts.maxBegin - 1)
	if start < s.freeStart {
		start = s.freeStart
	}
	tr := s.ts.trie
	for from := start; from < len(s.bytes); from++ {
		n := tr.Root()
		ok := true
		for _, ch := range s.bytes[from:] {
			if n = tr.Step(n, ch); n < 0 {
				ok = false
				break
			}
		}
		// A suffix that already completed a begin tag would have entered the
		// segment when originally accepted; only proper prefixes are live.
		if ok && tr.Token(n) < 0 {
			s.cands = append(s.cands, n)
		}
	}
}

// replayTo rebuilds the dispatcher state for the byte prefix of the given
// length: the slow rollback path for windows that cross a mode transition,
// and the restore path for failed accepts. Bytes older than the checkpoint
// ring are re-fed as one chunk (they can never be rolled back), then each
// retained step's bytes re-run through the processor so the ring's segment
// checkpoint counts stay aligned with the fresh segment session.
func (s *Session) replayTo(target int) {
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
	}
	s.mode = -1
	s.cands = s.cands[:0]
	s.freeStart = 0
	s.replaying = true
	defer func() { s.replaying = false }()
	replay := s.bytes[:target:target]
	s.bytes = s.bytes[:0]

	var ringBytes int32
	for i := 1; i <= s.stepLen; i++ {
		ringBytes += s.stepAt(i).nbytes
	}
	pre := target - int(ringBytes)
	if pre < 0 {
		// Records beyond the target (a failed accept's partial step) are not
		// in the ring; everything replayed is pre-history relative to it.
		pre = target
	}
	if pre > 0 {
		if _, err := s.process(replay[:pre]); err != nil {
			panic(fmt.Sprintf("structtag: replay diverged on accepted bytes: %v", err))
		}
	}
	off := pre
	for i := s.stepLen; i >= 1; i-- {
		r := s.stepAt(i)
		end := off + int(r.nbytes)
		if end > target {
			end = target
		}
		rec, err := s.process(replay[off:end])
		if err != nil {
			panic(fmt.Sprintf("structtag: replay diverged on accepted bytes: %v", err))
		}
		*r = rec
		off = end
	}
	s.dirty = true
}

// Close releases the session (and any active segment session) back to the
// pools. The session must not be used afterwards.
func (s *Session) Close() {
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
	}
	s.mode = -1
	s.cands = s.cands[:0]
	s.bytes = s.bytes[:0]
	s.stepHead, s.stepLen = 0, 0
	s.freeStart = 0
	s.terminated = false
	s.dirty = true
	s.lastStats = maskcache.FillStats{}
	s.spans = s.spans[:0]
	s.replaying = false
	s.ts.released.Add(1)
	s.ts.pool.Put(s)
}
