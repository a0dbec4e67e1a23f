// Package serve is the continuous-batching serving runtime that co-designs
// the grammar engine with the LLM engine (§3.5): pooled per-sequence
// sessions whose steady-state decode step is allocation-free, and the
// warm-start acquisition layer that positions them after a forced prefix.
//
// A Session fuses the per-token grammar work — accept the sampled token,
// probe the jump-forward continuation (Appendix B), and fill the next-step
// token mask — into one Step call over resources (matcher, fill context,
// mask buffer) that are recycled through a sync.Pool, so sequences joining
// and leaving a running batch never re-allocate grammar state.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xgrammar/internal/bitset"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/matcher"
	"xgrammar/internal/pda"
	"xgrammar/internal/tokenizer"
)

// SessionPool recycles decoding sessions for one compiled grammar. Acquire
// returns a session at the grammar start state; Release (or Session.Close)
// hands it back. The pool is safe for concurrent use; individual sessions
// are not (one per sequence, driven from one goroutine at a time).
type SessionPool struct {
	p          *pda.PDA
	cache      *maskcache.Cache // nil: full-vocabulary scan fills
	tok        *tokenizer.Tokenizer
	maxHistory int
	pool       sync.Pool
	created    atomic.Int64
	reused     atomic.Int64
	released   atomic.Int64
}

// NewSessionPool returns a pool of sessions over the compiled automaton.
// cache may be nil (every fill scans the vocabulary); maxHistory <= 0 uses
// the matcher default rollback window.
func NewSessionPool(p *pda.PDA, cache *maskcache.Cache, tok *tokenizer.Tokenizer, maxHistory int) *SessionPool {
	return &SessionPool{p: p, cache: cache, tok: tok, maxHistory: maxHistory}
}

// Acquire returns a session at the grammar start state, reusing a released
// one when available.
func (sp *SessionPool) Acquire() *Session {
	if v := sp.pool.Get(); v != nil {
		sp.reused.Add(1)
		return v.(*Session)
	}
	sp.created.Add(1)
	exec := matcher.NewExec(sp.p)
	return sp.newSession(exec, matcher.New(exec, sp.maxHistory))
}

// newSession wraps a matcher in fresh fill scratch and mask buffer.
func (sp *SessionPool) newSession(exec *matcher.Exec, m *matcher.Matcher) *Session {
	vocab := sp.tok.VocabSize()
	s := &Session{
		sp:    sp,
		exec:  exec,
		m:     m,
		fc:    maskcache.NewFillContext(vocab),
		mask:  make([]uint64, bitset.WordsFor(vocab)),
		dirty: true,
	}
	s.bs = bitset.FromWords(s.mask, vocab)
	return s
}

// Release resets the session and returns it to the pool. When the session
// was acquired through an Acquirer, checkpoints captured during its replay
// are published to the prefix cache first (publication rides on release so
// capture cost never sits on a request's critical path). The session must
// not be used afterwards.
func (sp *SessionPool) Release(s *Session) {
	s.publishPending()
	s.Reset()
	sp.released.Add(1)
	sp.pool.Put(s)
}

// PoolStats reports session recycling activity.
type PoolStats struct {
	// Created counts sessions built from scratch; Reused counts Acquire
	// calls served by recycling a released session. A released session is
	// not guaranteed to be the next one reused (sync.Pool keeps per-P slots
	// and drops idle entries at GC), so leak checks use Outstanding.
	Created, Reused int64
}

// Stats returns a snapshot of the pool counters.
func (sp *SessionPool) Stats() PoolStats {
	return PoolStats{Created: sp.created.Load(), Reused: sp.reused.Load()}
}

// Outstanding returns the number of sessions acquired and not yet released:
// zero whenever no generation is in flight, unless a session leaked.
func (sp *SessionPool) Outstanding() int64 {
	// released first: a concurrent acquire can only push the result up.
	rel := sp.released.Load()
	return sp.created.Load() + sp.reused.Load() - rel
}

// Tok returns the tokenizer the pool's grammar was compiled for.
func (sp *SessionPool) Tok() *tokenizer.Tokenizer { return sp.tok }

// StepResult is the outcome of one fused decode step.
type StepResult struct {
	// Terminated is true once the stop token has been accepted; the mask is
	// all zero from then on.
	Terminated bool
	// JumpForward is the deterministic continuation available after the
	// accepted token (empty when the next byte is ambiguous). The bytes are
	// only valid until the next call on the session; callers that keep the
	// continuation must copy it (or feed it straight to AcceptString).
	JumpForward []byte
	// Stats instruments the mask fill.
	Stats maskcache.FillStats
}

// Session tracks one generation over pooled grammar resources: a matcher, a
// mask-fill scratch context, and the session's own mask buffer. In steady
// state Step performs no heap allocations.
type Session struct {
	sp   *SessionPool
	exec *matcher.Exec
	m    *matcher.Matcher
	fc   *maskcache.FillContext
	mask []uint64
	bs   *bitset.Bitset
	jf   []byte
	// dirty is true when the matcher advanced past the state Mask was
	// filled for; Fill is a no-op while clean, so a batch fill never
	// recomputes a mask the fused Step already produced (and vice versa).
	dirty      bool
	lastStats  maskcache.FillStats
	terminated bool
	// Warm-start state, set when the session came through an Acquirer: acq
	// publishes pending checkpoint captures at Release; base/baseSteps
	// record the prefix the restored checkpoint stands in for, so Rollback
	// can degrade past the fork point (see Rollback).
	acq       *Acquirer
	pending   []pendingPub
	base      []byte
	baseSteps int
}

// Step is the fused per-token hot path: accept the sampled token, probe the
// jump-forward continuation, and fill the next-step mask into Mask(), all in
// one call. Accepting the stop token terminates the session (legal only when
// the grammar can complete) and clears the mask.
//
//xg:hotpath
func (s *Session) Step(id int32) (StepResult, error) {
	var res StepResult
	if err := s.Accept(id); err != nil {
		return res, err
	}
	if s.terminated {
		res.Terminated = true
		return res, nil
	}
	s.jf = s.m.JumpForwardAppend(s.jf)
	res.JumpForward = s.jf
	res.Stats = s.Fill()
	return res, nil
}

// Fill computes the allowed-token mask for the next decoding step into the
// session's own buffer (Mask). Fill is idempotent: when the mask is already
// current — the fused Step just produced it, or a batch fill ran since the
// last accept — it returns the cached statistics without recomputing, so
// mixing Step with batch fills never does the grammar work twice.
func (s *Session) Fill() maskcache.FillStats {
	st, _ := s.FillTracked()
	return st
}

// FillTracked is Fill additionally reporting whether this call did the
// grammar work: computed is false when the mask was already current (the
// fused Step or a previous batch fill produced it) and the memoized stats
// were returned. The serving engine uses it to count real fills — and
// canonical-mask fast-path hits — without double-counting idempotent
// no-ops.
//
//xg:hotpath
func (s *Session) FillTracked() (stats maskcache.FillStats, computed bool) {
	if !s.dirty {
		return s.lastStats, false
	}
	s.lastStats = s.fillInto(s.bs)
	s.dirty = false
	return s.lastStats, true
}

// Mask returns the session's mask buffer: bit i set means token i keeps the
// output inside the grammar. Valid until the next Step/Fill call.
func (s *Session) Mask() []uint64 { return s.mask }

// FillMask fills the allowed-token mask into a caller-provided bitset and
// returns the fill instrumentation. It leaves the session's own Mask as is.
func (s *Session) FillMask(mask *bitset.Bitset) maskcache.FillStats { return s.fillInto(mask) }

func (s *Session) fillInto(mask *bitset.Bitset) maskcache.FillStats {
	if s.terminated {
		mask.ClearAll()
		return maskcache.FillStats{}
	}
	canTerm := s.m.CanTerminate()
	if s.sp.cache != nil {
		return s.sp.cache.FillMask(s.exec, s.m.States(), mask, canTerm, s.fc)
	}
	maskcache.FullScanMask(s.exec, s.sp.tok, s.m.States(), mask, canTerm, true)
	return maskcache.FillStats{}
}

// Accept advances the session by one generated token without the fused
// probe+fill — the batch-decoding path where the next round's batch fill
// computes the mask while the GPU runs. The stop token terminates the
// generation; it is only legal when the grammar can complete.
func (s *Session) Accept(id int32) error {
	if s.terminated {
		return fmt.Errorf("serve: session already terminated")
	}
	if id == tokenizer.EosID {
		if !s.m.CanTerminate() {
			return fmt.Errorf("serve: stop token before grammar completion")
		}
		s.terminated = true
		s.bs.ClearAll()
		s.dirty = false
		s.lastStats = maskcache.FillStats{}
		return nil
	}
	if s.sp.tok.IsSpecial(id) {
		return fmt.Errorf("serve: special token %d not allowed", id)
	}
	if !s.m.Advance(s.sp.tok.TokenBytes(id)) {
		return fmt.Errorf("serve: token %d (%q) violates grammar", id, s.sp.tok.TokenBytes(id))
	}
	s.dirty = true
	return nil
}

// AcceptString advances the session by raw bytes as one checkpoint — the
// jump-forward insertion path (the caller refills via Fill or the next Step).
func (s *Session) AcceptString(text string) error {
	if s.terminated {
		return fmt.Errorf("serve: session already terminated")
	}
	if !s.m.Advance([]byte(text)) {
		return fmt.Errorf("serve: string %q violates grammar", text)
	}
	s.dirty = true
	return nil
}

// AcceptBytes is AcceptString without the string conversion — the
// allocation-free variant for byte-stream drivers (structural-tag dispatch).
func (s *Session) AcceptBytes(b []byte) error {
	if s.terminated {
		return fmt.Errorf("serve: session already terminated")
	}
	if !s.m.Advance(b) {
		return fmt.Errorf("serve: bytes %q violate grammar", b)
	}
	s.dirty = true
	return nil
}

// JumpForward returns the deterministic continuation of the current state,
// or "" when the next byte is ambiguous.
func (s *Session) JumpForward() string {
	if s.terminated {
		return ""
	}
	return s.m.JumpForward()
}

// JumpForwardAppend appends the deterministic continuation to dst and
// returns it — the allocation-free variant of JumpForward for fused decode
// steps (callers pass a reused buffer).
func (s *Session) JumpForwardAppend(dst []byte) []byte {
	if s.terminated {
		return dst[:0]
	}
	return s.m.JumpForwardAppend(dst)
}

// Rollback undoes the last n Accept/AcceptString calls. Like the matcher's
// rollback it is atomic: on error (n exceeds the retained history) the
// session is unchanged.
//
// A warm-started session has one extra virtual step below its oldest real
// checkpoint: the restored prefix itself (a cold session accepts the forced
// prefix as a single AcceptString step, so parity requires the fork point to
// be undoable too). Rolling back exactly across it degrades safely to a cold
// reset — the matcher returns to the grammar start, precisely where the cold
// session's equivalent rollback would land; the cache is not consulted.
func (s *Session) Rollback(n int) error {
	steps := n
	if s.terminated && steps > 0 {
		steps-- // undoing the terminating EOS costs no matcher step
	}
	if err := s.m.Rollback(steps); err != nil {
		if s.baseSteps == 0 || steps != s.m.HistoryLen()+s.baseSteps {
			return err
		}
		s.m.Reset()
		s.base = s.base[:0]
		s.baseSteps = 0
	}
	if s.terminated && n > 0 {
		s.terminated = false
	}
	s.dirty = true
	return nil
}

// HistoryCap returns the session's rollback window: the largest number of
// Accept/AcceptString calls that can ever be undone. Speculative decoding
// bounds its draft window by this so a fully rejected draft is always
// retractable.
func (s *Session) HistoryCap() int { return s.m.MaxHistory() }

// HistoryLen returns the number of steps currently available for rollback.
func (s *Session) HistoryLen() int { return s.m.HistoryLen() }

// CanTerminate reports whether the stop token may be accepted next: the
// grammar permits stopping here and the stop token has not been accepted
// yet. It is false from the stop token on, until a Rollback undoes it.
func (s *Session) CanTerminate() bool { return !s.terminated && s.m.CanTerminate() }

// IsTerminated reports whether the stop token has been accepted.
func (s *Session) IsTerminated() bool { return s.terminated }

// NumStacks returns the number of live PDA stacks (a measure of grammar
// ambiguity at this point).
func (s *Session) NumStacks() int { return s.m.NumStacks() }

// Reset returns the session to the grammar start state with an empty
// rollback history and a stale mask.
func (s *Session) Reset() {
	s.base = s.base[:0]
	s.baseSteps = 0
	s.m.Reset()
	s.terminated = false
	s.dirty = true
	s.lastStats = maskcache.FillStats{}
}

// Fork returns an unpooled session at the same grammar position, sharing
// the persistent stacks (§3.3) in O(current states). The fork starts with
// an empty rollback history and must be driven from the same goroutine as
// its origin, since both share the executor. End it with Discard, never
// Close: it was not acquired from the pool.
func (s *Session) Fork() *Session {
	f := s.sp.newSession(s.exec, s.m.Fork())
	f.terminated = s.terminated
	return f
}

// Discard frees the session's stack references so the shared stack tree
// can reclaim them — the end of a Fork. The session must not be used
// afterwards.
func (s *Session) Discard() { s.m.Release() }

// Close releases the session back to its pool. The session must not be used
// afterwards.
func (s *Session) Close() { s.sp.Release(s) }
