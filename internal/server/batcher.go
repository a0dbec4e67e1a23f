package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"xgrammar"
	"xgrammar/internal/backend"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/obs"
	"xgrammar/internal/quantile"
	"xgrammar/internal/spec"
)

// Finish reasons reported per generation.
const (
	// FinishStop: the grammar completed and the stop token was sampled.
	FinishStop = "stop"
	// FinishLength: the token budget ran out before the grammar completed.
	FinishLength = "length"
	// FinishCanceled: the client went away mid-generation.
	FinishCanceled = "canceled"
	// FinishShutdown: the server shut down mid-generation.
	FinishShutdown = "shutdown"
	// FinishError: the model backend failed mid-generation (the partial
	// output was streamed; the per-backend error counter records it).
	FinishError = "error"
)

// genSeq is one generation riding the continuous batch: a pooled grammar
// session, a model-backend sequence picking each token under the grammar
// mask (the seeded simulated sampler by default), and the channel the HTTP
// handler streams chunks from.
type genSeq struct {
	ctx  context.Context
	sess *xgrammar.Session
	// seq picks tokens; trig and spec are its optional trigger-injection and
	// draft hooks (nil when the backend lacks them).
	seq  backend.Sequence
	trig backend.TriggerProposer
	spec backend.Speculator
	// modelErr records a backend failure (not grammar exhaustion): the
	// generation finishes with FinishError and the backend's error counter.
	modelErr error
	// remaining is the decode-step budget (jump-forward bytes are free,
	// exactly the Appendix B argument).
	remaining int
	// chunks carries emitted text to the handler. Capacity covers the worst
	// case (one sampled chunk plus one jump-forward chunk per step), so the
	// batcher never blocks on a slow client.
	chunks chan string
	done   chan struct{}
	// Written by the batcher before close(done); read by the handler after.
	finishReason string
	tokens       int
	jfBytes      int

	// trace is the request's lifecycle trace (nil when tracing is off); the
	// handler observes admission/resolve/stream stages into it while the
	// batcher observes queue/accept/fill/backend — the trace's own mutex
	// serialises them. submitAt stamps batcher submission; queued flips when
	// the first decode round includes the sequence (queue-wait span).
	trace    *obs.Trace
	submitAt time.Time
	queued   bool

	// draftK > 0 enables speculative draft-verify decoding with that
	// window; the batcher zeroes it when the session's rollback history
	// cannot retract a window (permanent per-sequence fallback) or the
	// backend stops drafting. The fill, propose, and verdict closures are
	// built once at submit so the steady-state round allocates nothing per
	// step; roundPropose is refreshed from the backend's Draft hook each
	// round.
	draftK       int
	specW        spec.Window
	fill         func()
	propose      spec.Proposer
	roundPropose backend.Proposer
	verdict      spec.Sampler

	// Structural-tag state. Free-text rounds always decode plainly (the
	// trigger-injection RNG draw must align between plain and speculative
	// runs); speculation applies inside tag segments, where the grammar
	// makes greedy drafts worth verifying. specPhase records, per draft
	// window position, whether the session had left the segment (the
	// verdict sampler declines those positions so the RNG stream stays
	// aligned with a plain decode); specFreeDecline marks a round whose
	// missing bonus is a phase exit, not an exhausted budget.
	isTag           bool
	begins          []string
	lastInTag       bool
	segments        int
	specPhase       []bool
	specFreeDecline bool
}

// inTag reports whether the session is inside a constrained tag segment.
func (q *genSeq) inTag() bool {
	_, ok := q.sess.InTag()
	return ok
}

// batcher drives the continuous-batching decode loop: requests join the
// live batch between rounds, every round fills the whole batch's masks
// on the batcher goroutine while the simulated GPU step runs
// (Overlap, §3.5), samples one token per sequence from its mask, inserts
// jump-forward continuations, and retires finished sequences.
type batcher struct {
	eng      *xgrammar.Engine
	tok      *xgrammar.TokenizerInfo
	eos      int32
	gpuStep  time.Duration
	tracer   *obs.Tracer
	join     chan *genSeq
	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup

	// Metrics.
	tokens    atomic.Int64
	jfBytes   atomic.Int64
	rounds    atomic.Int64
	peakBatch atomic.Int64
	liveNow   atomic.Int64

	// Structural-tag gauges: per-phase token counts, segment transitions,
	// and forced trigger bytes.
	tagRequests  atomic.Int64
	segsOpened   atomic.Int64
	segsClosed   atomic.Int64
	freeTokens   atomic.Int64
	tagTokens    atomic.Int64
	triggerBytes atomic.Int64

	// Speculative-decoding gauges: draft tokens proposed by the draft
	// model, speculatively accepted by the grammar, confirmed by the
	// sampler (each confirmed token is a decode round saved), and
	// sequences that fell back because the rollback window was too small.
	specRequests  atomic.Int64
	specProposed  atomic.Int64
	specDrafted   atomic.Int64
	specAccepted  atomic.Int64
	specFallbacks atomic.Int64

	// fillRing is the bounded window of per-round batch-fill walls behind
	// the JSON fill_p50_us/fill_p99_us gauges.
	fillRing *quantile.Ring
}

// maxFillSamples bounds the fill-latency ring.
const maxFillSamples = 4096

func newBatcher(eng *xgrammar.Engine, eos int32, gpuStep time.Duration, tracer *obs.Tracer) *batcher {
	b := &batcher{
		eng:      eng,
		tok:      eng.Compiler().TokenizerInfo(),
		eos:      eos,
		gpuStep:  gpuStep,
		tracer:   tracer,
		join:     make(chan *genSeq),
		quit:     make(chan struct{}),
		fillRing: quantile.NewRing(maxFillSamples),
	}
	b.wg.Add(1)
	go b.loop()
	return b
}

// close stops the decode loop (idempotent); in-flight sequences finish with
// FinishShutdown.
func (b *batcher) close() {
	b.quitOnce.Do(func() { close(b.quit) })
	b.wg.Wait()
}

// submit hands a sequence to the decode loop; false when the batcher is
// shutting down.
func (b *batcher) submit(q *genSeq) bool {
	q.trig, _ = q.seq.(backend.TriggerProposer)
	if q.draftK > 0 {
		if q.spec, _ = q.seq.(backend.Speculator); q.spec == nil {
			// The backend cannot draft: permanent plain decoding.
			q.draftK = 0
		}
	}
	if q.draftK > 0 {
		q.fill = func() { q.sess.Fill() }
		if q.isTag {
			q.propose = b.tagProposer(q)
			q.verdict = b.tagVerdictSampler(q)
		} else {
			q.propose = func(pos int, mask []uint64) (int32, bool) { return q.roundPropose(pos, mask) }
			q.verdict = b.verdictSampler(q)
		}
	}
	select {
	case b.join <- q:
		return true
	case <-b.quit:
		return false
	}
}

func (b *batcher) loop() {
	defer b.wg.Done()
	var live []*genSeq
	var sessions []*xgrammar.Session    // reused across rounds
	var fillStats []maskcache.FillStats // reused stats buffer
	var gpuTimer *time.Timer            // reused pacing timer
	if b.gpuStep > 0 {
		// Created stopped-and-drained: each round Resets it and receives
		// exactly once, so no stale fire can short-circuit the pacing.
		gpuTimer = time.NewTimer(time.Hour)
		if !gpuTimer.Stop() {
			<-gpuTimer.C
		}
		defer gpuTimer.Stop()
	}
	finish := func(i int, reason string) {
		q := live[i]
		q.finishReason = reason
		// Merge completed structural-tag segment spans before Close resets
		// them with the rest of the session state.
		if q.isTag && q.trace != nil {
			for _, sp := range q.sess.TagSegments() {
				q.trace.EventAt(obs.StageTagSegment, sp.Start, sp.Dur)
				b.tracer.ObserveStage(obs.StageTagSegment, sp.Dur)
			}
		}
		q.seq.Close()
		q.sess.Close()
		close(q.chunks)
		close(q.done)
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		b.liveNow.Store(int64(len(live)))
	}
	for {
		// Admission: block for the first sequence, then drain whatever else
		// has arrived so a burst joins as one batch.
		if len(live) == 0 {
			select {
			case q := <-b.join:
				live = append(live, q)
			case <-b.quit:
				return
			}
		}
	drain:
		for {
			select {
			case q := <-b.join:
				live = append(live, q)
			case <-b.quit:
				for i := len(live) - 1; i >= 0; i-- {
					finish(i, FinishShutdown)
				}
				return
			default:
				break drain
			}
		}
		b.liveNow.Store(int64(len(live)))
		if n := int64(len(live)); n > b.peakBatch.Load() {
			b.peakBatch.Store(n)
		}
		b.tracer.ObserveDepth(len(live))
		for _, q := range live {
			if !q.queued {
				q.queued = true
				q.trace.Observe(obs.StageQueue, time.Since(q.submitAt))
			}
		}

		// One decode round: the batch mask fill runs while the simulated GPU
		// step does (§3.5 overlap); both must finish before sampling. The
		// sessions slice and pacing timer are reused so the steady-state
		// round allocates nothing of its own.
		sessions = sessions[:0]
		for _, q := range live {
			sessions = append(sessions, q.sess)
		}
		if gpuTimer != nil {
			gpuTimer.Reset(b.gpuStep)
		}
		t0 := time.Now()
		fillStats = b.eng.FillBatchInto(fillStats, sessions)
		fillWall := time.Since(t0)
		b.fillRing.Observe(fillWall)
		b.tracer.ObserveStage(obs.StageFill, fillWall)
		// Attribute the round's batched fill to each traced participant as a
		// trace event (the histogram sample above is per round, not per
		// sequence, so the batch size does not inflate it).
		for _, q := range live {
			if q.trace.Detail() {
				q.trace.Event(obs.StageFill, fillWall)
			}
		}
		if gpuTimer != nil {
			<-gpuTimer.C
		}
		b.rounds.Add(1)

		// Sampling + acceptance, newest last so swap-removal is safe.
		for i := 0; i < len(live); {
			q := live[i]
			if q.ctx.Err() != nil {
				finish(i, FinishCanceled)
				continue
			}
			if done, reason := b.stepSeq(q); done {
				finish(i, reason)
				continue
			}
			i++
		}
	}
}

// stepSeq advances one sequence by a decode round: a speculative
// draft-verify window when enabled, a single sampled token otherwise.
// Structural-tag sequences speculate only inside tag segments — free-text
// rounds always decode plainly so the trigger-injection RNG draws align
// between plain and speculative runs of the same seed.
// done=true means the generation ended with the given finish reason.
func (b *batcher) stepSeq(q *genSeq) (done bool, reason string) {
	if q.draftK > 0 && (!q.isTag || q.inTag()) {
		if done, reason, ok := b.specRound(q); ok {
			return done, reason
		}
		// The rollback window could not cover the draft; q.draftK is now
		// zero and the round decodes plainly (the failed speculative step
		// touched no session state).
	}
	return b.plainRound(q)
}

// plainRound samples and commits one token (plus jump-forward insertion).
// For structural-tag sequences in free text it first lets the model decide
// to open a tool call (the backend's trigger hook — the simulated sampler
// elects one with probability 1/6): the begin tag is forced into the stream,
// arming the tag's sub-grammar, mirroring an instruction-tuned model
// electing to call a tool.
func (b *batcher) plainRound(q *genSeq) (done bool, reason string) {
	if q.isTag && !q.inTag() && q.remaining > 0 && q.trig != nil {
		if idx, fire := q.trig.ProposeTrigger(len(q.begins)); fire {
			if err := q.sess.AcceptString(q.begins[idx]); err == nil {
				// The trigger is the model's own output: let the backend
				// observe it (the sampler absorbs it for free).
				q.seq.ObserveForced(q.begins[idx])
				b.emitTrigger(q, q.begins[idx])
				b.trackPhase(q)
				b.insertJumpForward(q)
				q.sess.Fill()
			}
		}
	}
	wasTag := q.inTag()
	id, ok := b.pick(q, q.sess.Mask())
	if !ok {
		if q.modelErr != nil {
			return true, FinishError
		}
		// Budget exhausted before the grammar could complete (or a stuck
		// mask, which a sound grammar never produces).
		return true, FinishLength
	}
	// Per-step span timing only while the trace's detail window has room:
	// clock reads chain (accept span end = jump-forward span start), so a
	// traced step costs two extra time.Now calls and an untraced one none.
	var tAcc time.Time
	if q.trace.Detail() {
		tAcc = time.Now()
	}
	if err := q.sess.Accept(id); err != nil {
		// Unreachable for tokens drawn from the mask — but a model backend
		// may return a token outside it; fail the generation closed.
		return true, FinishError
	}
	if !tAcc.IsZero() {
		tAcc = q.trace.ObserveSince(obs.StageAccept, tAcc)
	}
	if q.sess.IsTerminated() {
		return true, FinishStop
	}
	q.remaining--
	b.emitTokenPhase(q, id, wasTag)
	b.insertJumpForward(q)
	if !tAcc.IsZero() {
		q.trace.ObserveSince(obs.StageJumpForward, tAcc)
	}
	b.trackPhase(q)
	return false, ""
}

// specRound runs one speculative draft-verify round (§3.3 rollback window):
// a grammar-greedy draft model proposes up to draftK tokens, the session
// speculatively accepts them (capturing per-position masks), the seeded
// sampler delivers verdicts against those masks, and the rejected suffix —
// draft tokens plus any jump-forward insertions riding on them — is
// retracted atomically. Because verdicts consume the sequence's RNG exactly
// as a plain decode of the same tokens would, output is byte-identical to
// non-speculative decoding with the same seed; only the number of decode
// rounds shrinks. ok=false reports the window exceeded the session's
// rollback history: draftK is zeroed and nothing was committed.
func (b *batcher) specRound(q *genSeq) (done bool, reason string, ok bool) {
	q.specPhase = q.specPhase[:0]
	q.specFreeDecline = false
	// Refresh the draft window from the backend's draft model; a backend
	// that stops drafting falls back to plain decoding permanently.
	var drafting bool
	if q.roundPropose, drafting = q.spec.Draft(q.ctx, q.draftK); !drafting {
		q.draftK = 0
		b.specFallbacks.Add(1)
		return false, "", false
	}
	res, err := spec.Step(q.sess, q.fill, q.propose, q.verdict, &q.specW,
		spec.Options{MaxDraft: q.draftK, EOS: b.eos, JumpForward: true})
	if err != nil {
		if errors.Is(err, spec.ErrWindowExceeded) {
			q.draftK = 0
			b.specFallbacks.Add(1)
			return false, "", false
		}
		// Corrupt-state guard: fail the generation closed.
		return true, FinishLength, true
	}
	if q.modelErr != nil {
		// The backend failed mid-verify; the confirmed prefix (below) was
		// already committed by spec.Step, so stream it before finishing.
		for j := 0; j < res.Accepted; j++ {
			b.emitTokenPhase(q, q.specW.DraftAt(j), q.isTag)
			if jf := q.specW.JumpForwardAt(j); jf != "" {
				b.emitJumpForward(q, jf)
			}
		}
		return true, FinishError, true
	}
	b.specProposed.Add(int64(res.Proposed))
	b.specDrafted.Add(int64(res.Drafted))
	b.specAccepted.Add(int64(res.Accepted))
	inTag := q.isTag // tag sequences only reach specRound inside a segment
	for j := 0; j < res.Accepted; j++ {
		b.emitTokenPhase(q, q.specW.DraftAt(j), inTag)
		if jf := q.specW.JumpForwardAt(j); jf != "" {
			b.emitJumpForward(q, jf)
		}
	}
	if !res.HasBonus {
		if q.specFreeDecline {
			// The window ran into the segment end: the committed prefix
			// closed the segment and the next round decodes free text
			// plainly — this is a phase boundary, not an exhausted budget.
			b.trackPhase(q)
			return false, "", true
		}
		return true, FinishLength, true
	}
	if res.Terminated {
		return true, FinishStop, true
	}
	b.emitTokenPhase(q, res.Bonus, inTag)
	b.insertJumpForward(q)
	b.trackPhase(q)
	return false, "", true
}

// emitToken streams one committed token's text and counts it. The token
// budget is not charged here: the plain path charges it on acceptance, the
// speculative path inside the verdict sampler (so RNG and budget progress
// match the plain decode exactly).
func (b *batcher) emitToken(q *genSeq, id int32) {
	q.tokens++
	b.tokens.Add(1)
	q.emit(string(b.tok.TokenBytes(id)))
}

// emitTokenPhase is emitToken plus per-phase accounting for structural-tag
// sequences: inTag reports the phase the token was sampled in.
func (b *batcher) emitTokenPhase(q *genSeq, id int32, inTag bool) {
	b.emitToken(q, id)
	if q.isTag {
		if inTag {
			b.tagTokens.Add(1)
		} else {
			b.freeTokens.Add(1)
		}
	}
}

// emitTrigger streams a forced begin tag (the simulated model deciding to
// open a tool call); like jump-forward bytes it costs no decode round and
// no token budget.
func (b *batcher) emitTrigger(q *genSeq, begin string) {
	b.triggerBytes.Add(int64(len(begin)))
	q.emit(begin)
}

// trackPhase updates segment open/close gauges when a structural-tag
// sequence crossed a mode boundary since the last check.
func (b *batcher) trackPhase(q *genSeq) {
	if !q.isTag {
		return
	}
	cur := q.inTag()
	if cur == q.lastInTag {
		return
	}
	if cur {
		b.segsOpened.Add(1)
	} else {
		b.segsClosed.Add(1)
		q.segments++
	}
	q.lastInTag = cur
}

// tagProposer drafts greedily while the session stays inside its tag
// segment, recording each window position's phase; the first free-text
// position stops the draft (free text is never worth speculating — and
// must decode plainly so the trigger-injection RNG stays aligned).
func (b *batcher) tagProposer(q *genSeq) spec.Proposer {
	return func(pos int, mask []uint64) (int32, bool) {
		free := !q.inTag()
		q.specPhase = append(q.specPhase, free)
		if free {
			q.specFreeDecline = true
			return 0, false
		}
		return q.roundPropose(pos, mask)
	}
}

// tagVerdictSampler is the verdict sampler for structural-tag sequences:
// positions the draft reached after leaving the segment are declined (the
// plain decode would handle them in later free-text rounds, with the
// injection draw first), everything else samples exactly like a plain
// decode round.
func (b *batcher) tagVerdictSampler(q *genSeq) spec.Sampler {
	return func(pos int, mask []uint64) (int32, bool) {
		if pos < len(q.specPhase) && q.specPhase[pos] {
			q.specFreeDecline = true
			return 0, false
		}
		if pos >= len(q.specPhase) && !q.inTag() {
			// Bonus position past a full window whose last draft closed the
			// segment: the live session sits in free text.
			q.specFreeDecline = true
			return 0, false
		}
		id, ok := b.pick(q, mask)
		if ok && id != b.eos {
			q.remaining--
		}
		return id, ok
	}
}

// emitJumpForward streams an already-inserted forced continuation.
func (b *batcher) emitJumpForward(q *genSeq, jf string) {
	q.jfBytes += len(jf)
	b.jfBytes.Add(int64(len(jf)))
	q.emit(jf)
}

// insertJumpForward probes and inserts the deterministic continuation at
// the sequence head (Appendix B): no decode round, no token budget. The
// model is offered the continuation first and the insertion is skipped when
// it declines — a position-tracking backend would otherwise lose alignment
// with the output after the first forced byte.
func (b *batcher) insertJumpForward(q *genSeq) {
	if jf := q.sess.JumpForward(); jf != "" && q.seq.ObserveForced(jf) {
		if err := q.sess.AcceptString(jf); err == nil {
			b.emitJumpForward(q, jf)
		}
	}
}

// verdictSampler adapts the sequence's model backend as the speculative
// verify step's target model, charging the token budget per confirmed
// non-stop verdict (every ok verdict is committed: confirmed draft tokens
// and the bonus alike).
func (b *batcher) verdictSampler(q *genSeq) spec.Sampler {
	return func(_ int, mask []uint64) (int32, bool) {
		id, ok := b.pick(q, mask)
		if ok && id != b.eos {
			q.remaining--
		}
		return id, ok
	}
}

// emit sends a chunk without ever blocking the decode loop (the channel is
// sized for the worst case; drop defensively if a bug undersizes it).
func (q *genSeq) emit(text string) {
	select {
	case q.chunks <- text:
	default:
	}
}

// pick asks the sequence's model backend for the next token under the given
// grammar mask. The token-budget gate runs first and consumes no backend
// state (exactly as the old in-batcher sampler gated before drawing RNG), so
// a budget-exhausted sequence stops on the stop token if it is legal and
// fails closed otherwise. Backend errors other than a clean decline are
// recorded in q.modelErr so the generation finishes with FinishError. Both
// the plain decode and the speculative verify pass pick through here, so a
// given token stream drives the backend identically in either mode.
func (b *batcher) pick(q *genSeq, mask []uint64) (int32, bool) {
	if q.remaining <= 0 {
		if maskHas(mask, b.eos) {
			return b.eos, true
		}
		return 0, false
	}
	var t0 time.Time
	if q.trace.Detail() {
		t0 = time.Now()
	}
	id, err := q.seq.Next(q.ctx, mask)
	if !t0.IsZero() {
		q.trace.ObserveSince(obs.StageBackend, t0)
	}
	if err != nil {
		if !errors.Is(err, backend.ErrNoToken) {
			q.modelErr = err
		}
		return 0, false
	}
	return id, true
}

// maskHas reports whether a token id is set in the bitmask.
func maskHas(mask []uint64, id int32) bool {
	w := int(id >> 6)
	return id >= 0 && w < len(mask) && mask[w]&(1<<uint(id&63)) != 0
}

// specMetrics snapshots the speculative-decoding gauges.
func (b *batcher) specMetrics() SpeculativeMetrics {
	m := SpeculativeMetrics{
		Requests:        b.specRequests.Load(),
		ProposedTokens:  b.specProposed.Load(),
		DraftedTokens:   b.specDrafted.Load(),
		AcceptedTokens:  b.specAccepted.Load(),
		WindowFallbacks: b.specFallbacks.Load(),
	}
	m.RoundsSaved = m.AcceptedTokens
	if m.ProposedTokens > 0 {
		m.AcceptanceRate = float64(m.AcceptedTokens) / float64(m.ProposedTokens)
	}
	return m
}

// tagMetrics snapshots the structural-tag gauges.
func (b *batcher) tagMetrics() StructuralTagMetrics {
	return StructuralTagMetrics{
		Requests:       b.tagRequests.Load(),
		SegmentsOpened: b.segsOpened.Load(),
		SegmentsClosed: b.segsClosed.Load(),
		FreeTokens:     b.freeTokens.Load(),
		TagTokens:      b.tagTokens.Load(),
		TriggerBytes:   b.triggerBytes.Load(),
	}
}

// fillPercentiles returns the p50 and p99 of recorded batch-fill walls
// (ceil-based nearest rank, shared with the engine's fill metrics).
func (b *batcher) fillPercentiles() (p50, p99 time.Duration) {
	q := b.fillRing.Quantiles(0.50, 0.99)
	return q[0], q[1]
}
