package xgrammar

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xgrammar/internal/maskcache"
	"xgrammar/internal/matcher"
	"xgrammar/internal/prefixcache"
	"xgrammar/internal/serve"
	"xgrammar/internal/spec"
	"xgrammar/internal/structtag"
)

// Engine is the continuous-batching serving runtime (§3.5): it resolves
// grammars through the compiler's compiled-grammar cache, hands out pooled
// Sessions whose steady-state decode step allocates nothing, and fills whole
// batches of masks on the calling goroutine.
//
// Typical serving loop (one Session per live sequence; sequences join and
// leave the batch between steps). Masks are computed once per token: in the
// batch loop, Accept advances a sequence without filling, and the next
// round's FillBatch computes every stale mask while the GPU forward pass
// runs:
//
//	eng := xgrammar.NewEngine(compiler)
//	s, err := eng.OpenGrammarSession(src) // compiled-grammar cache hit after the first request
//	...
//	gpuDone := launchForwardPass(live)
//	eng.FillBatch(live)                   // one decode step's masks, under the GPU step
//	<-gpuDone
//	for _, s := range live {
//	    id := sample(logits[s], s.Mask())
//	    err := s.Accept(id)               // no fill: next FillBatch does it overlapped
//	    if s.IsTerminated() { s.Close() } // session recycled for the next arrival
//	}
type Engine struct {
	compiler *Compiler
	// fills counts mask fills that did grammar work; fastFills the subset
	// served by the canonical-mask memcpy fast path. Idempotent no-op Fill
	// calls (mask already current) are not counted.
	fills     atomic.Int64
	fastFills atomic.Int64
	// prefixCache holds cross-request constraint-state checkpoints keyed by
	// (grammar ID, forced byte prefix); nil when warm-start is disabled.
	// acquirers lazily maps each grammar to its acquisition layer.
	prefixCache    *prefixcache.Cache
	prefixMinDepth int
	prefixStride   int
	acqMu          sync.Mutex
	acquirers      map[*CompiledGrammar]*serve.Acquirer
	anonGrammars   atomic.Int64
}

// EngineOption configures an Engine.
type EngineOption func(*engineConfig)

type engineConfig struct {
	prefixBudget   int64
	prefixMinDepth int
	prefixStride   int
}

// Deprecated: has no effect; batch fills run on the calling goroutine.
// WithFillWorkers is kept only because the frozen benchmark harness in bench/
// calls it; the next change to the benchmark removes that call, and then
// this option.
func WithFillWorkers(n int) EngineOption { return func(*engineConfig) {} }

// WithPrefixCache enables the cross-request constraint-state prefix cache:
// AcquireSession warm-starts sessions from cached matcher checkpoints keyed
// by (grammar ID, forced byte prefix) instead of replaying the prefix cold.
// budgetBytes bounds the cache (<= 0 disables it); minDepth is the shortest
// prefix worth publishing (<= 0 uses the serve-layer default); stride > 0
// additionally publishes intermediate checkpoints every stride bytes, so
// requests sharing only part of a template's scaffold still warm-start.
// Entries are invalidated when the compiled-grammar LRU evicts the grammar.
func WithPrefixCache(budgetBytes int64, minDepth, stride int) EngineOption {
	return func(c *engineConfig) {
		c.prefixBudget = budgetBytes
		c.prefixMinDepth = minDepth
		c.prefixStride = stride
	}
}

// NewEngine returns a serving engine over the compiler's tokenizer and
// compiled-grammar cache.
func NewEngine(compiler *Compiler, opts ...EngineOption) *Engine {
	cfg := engineConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{compiler: compiler}
	if cfg.prefixBudget > 0 {
		e.prefixCache = prefixcache.New(cfg.prefixBudget)
		e.prefixMinDepth = cfg.prefixMinDepth
		e.prefixStride = cfg.prefixStride
		e.acquirers = make(map[*CompiledGrammar]*serve.Acquirer)
		compiler.onGrammarEvict(func(id string) { e.prefixCache.InvalidateGrammar(id) })
	}
	return e
}

// Compiler returns the engine's grammar compiler.
func (e *Engine) Compiler() *Compiler { return e.compiler }

// Close releases nothing: the engine starts no goroutines and holds no
// resources beyond memory. It is kept so callers can treat the engine as a
// closable runtime; open sessions remain usable afterwards.
func (e *Engine) Close() {}

// OpenSession starts a generation against an already compiled grammar,
// recycling the grammar state (matcher, fill scratch, mask buffer) of a
// finished session when one is available. The session's mask is filled for
// the first decoding step. Pools live on the grammar itself, so their
// memory is reclaimed when the compiled-grammar LRU evicts it.
func (e *Engine) OpenSession(cg *CompiledGrammar) *Session {
	s := cg.sessionPool().Acquire()
	s.Fill()
	return &Session{e: e, cg: cg, s: s}
}

// AcquireResult reports how warm one AcquireSession call was: how many of
// the forced prefix's bytes were skipped by restoring a cached checkpoint,
// how many were replayed, and whether the memoized first-step mask applied.
type AcquireResult = serve.AcquireResult

// PrefixCacheStats is a snapshot of the engine's prefix-cache counters.
type PrefixCacheStats = prefixcache.Stats

// PrefixAcquireStats is a snapshot of the engine's acquisition-layer
// counters, aggregated across grammars.
type PrefixAcquireStats = serve.AcquirerStats

// acquirerFor returns (creating on first use) the grammar's warm-start
// acquisition layer. With the prefix cache disabled the acquirer still
// routes acquisition — every call just replays cold.
func (e *Engine) acquirerFor(cg *CompiledGrammar) *serve.Acquirer {
	e.acqMu.Lock()
	defer e.acqMu.Unlock()
	if e.acquirers == nil {
		e.acquirers = make(map[*CompiledGrammar]*serve.Acquirer)
	}
	if a, ok := e.acquirers[cg]; ok {
		return a
	}
	id := cg.ID()
	if id == "" {
		// Directly built grammar (no compile-cache identity): key it by an
		// engine-local synthetic ID so distinct builds never share entries.
		id = fmt.Sprintf("anon-%d", e.anonGrammars.Add(1))
	}
	a := serve.NewAcquirer(cg.sessionPool(), e.prefixCache, id, e.prefixMinDepth, e.prefixStride)
	e.acquirers[cg] = a
	return a
}

// AcquireSession is OpenSession through the warm-start acquisition layer:
// the session comes back already positioned after forcedPrefix with its
// first-step mask filled. With the prefix cache enabled (WithPrefixCache),
// the deepest cached checkpoint covering the prefix is restored and only
// the residual bytes are replayed; on an exact hit the memoized mask makes
// the first fill free. Closing the session publishes checkpoints captured
// during its replay, so the first request through a template warms every
// request after it. Output is byte-identical to a cold session that
// accepted the same prefix. An invalid prefix returns an error and no
// session.
func (e *Engine) AcquireSession(cg *CompiledGrammar, forcedPrefix string) (*Session, AcquireResult, error) {
	a := e.acquirerFor(cg)
	s, res, err := a.Acquire([]byte(forcedPrefix))
	if err != nil {
		return nil, res, err
	}
	return &Session{e: e, cg: cg, s: s}, res, nil
}

// PrefixCacheStats returns a snapshot of the prefix-cache counters; zero
// when the cache is disabled.
func (e *Engine) PrefixCacheStats() PrefixCacheStats { return e.prefixCache.Stats() }

// PrefixAcquireStats aggregates the per-grammar acquisition counters.
func (e *Engine) PrefixAcquireStats() PrefixAcquireStats {
	e.acqMu.Lock()
	defer e.acqMu.Unlock()
	var out PrefixAcquireStats
	for _, a := range e.acquirers {
		st := a.Stats()
		out.Acquires += st.Acquires
		out.WarmStarts += st.WarmStarts
		out.ExactHits += st.ExactHits
		out.BytesReused += st.BytesReused
		out.BytesReplayed += st.BytesReplayed
	}
	return out
}

// Checkpoint is a portable, immutable snapshot of a session's grammar
// position — the cross-goroutine complement of a matcher fork. It can be
// held indefinitely and restored into any session of the same compiled
// grammar with OpenSessionAt.
type Checkpoint = matcher.Checkpoint

// OpenSessionAt is OpenSession starting from a checkpoint previously
// captured with Session.Checkpoint instead of the grammar start state. The
// session's mask is filled for the first decoding step. The checkpoint must
// come from a session of the same compiled grammar.
func (e *Engine) OpenSessionAt(cg *CompiledGrammar, cp *Checkpoint) *Session {
	s := cg.sessionPool().Acquire()
	s.RestoreCheckpoint(cp)
	s.Fill()
	return &Session{e: e, cg: cg, s: s}
}

// OpenGrammarSession compiles (or cache-resolves) EBNF source and opens a
// session against it — the per-request entry point of a grammar-serving
// endpoint: after the first request for a grammar, compilation is a cache
// hit and session state is pooled.
func (e *Engine) OpenGrammarSession(src string) (*Session, error) {
	cg, err := e.compiler.CompileGrammar(src)
	if err != nil {
		return nil, err
	}
	return e.OpenSession(cg), nil
}

// OpenJSONSchemaSession is OpenGrammarSession for a JSON Schema request.
func (e *Engine) OpenJSONSchemaSession(schema []byte, o SchemaOptions) (*Session, error) {
	cg, err := e.compiler.CompileJSONSchema(schema, o)
	if err != nil {
		return nil, err
	}
	return e.OpenSession(cg), nil
}

// OpenTagSession starts a structural-tag generation: the session begins in
// free-text mode (every regular token allowed) and dispatches into the tag
// set's compiled segment grammars as begin tags appear in the decoded
// stream. Dispatcher state and segment grammar state are both pooled, so
// the steady-state decode step allocates nothing. The session's mask is
// filled for the first decoding step.
func (e *Engine) OpenTagSession(ts *CompiledTagSet) *Session {
	s := ts.set.Acquire()
	s.Fill()
	return &Session{e: e, tags: ts, s: s}
}

// OpenStructuralTagSession compiles (or cache-resolves) a structural-tag
// spec and opens a session against it — the per-request entry point of a
// tool-calling endpoint.
func (e *Engine) OpenStructuralTagSession(tags StructuralTags) (*Session, error) {
	ts, err := e.compiler.CompileStructuralTags(tags)
	if err != nil {
		return nil, err
	}
	return e.OpenTagSession(ts), nil
}

// FillBatch brings every session's mask up to date for one decode step on
// the calling goroutine, intended to run while the GPU forward pass
// executes (§3.5). Sessions may be attached to different
// grammars. Sessions whose mask is already current (the fused Step computed
// it) are skipped, so the grammar work runs exactly once per token however
// Step, Accept, and FillBatch are combined.
func (e *Engine) FillBatch(sessions []*Session) []maskcache.FillStats {
	return e.FillBatchInto(nil, sessions)
}

// FillBatchInto is FillBatch reusing the caller's stats buffer (grown as
// needed; nil allocates) — for decode loops that run every round and want
// the steady state allocation-free.
//
//xg:hotpath
func (e *Engine) FillBatchInto(stats []maskcache.FillStats, sessions []*Session) []maskcache.FillStats {
	if cap(stats) < len(sessions) {
		//xg:allow hotpathalloc: grows the caller's buffer once
		stats = make([]maskcache.FillStats, len(sessions))
	}
	stats = stats[:len(sessions)]
	for i, s := range sessions {
		st, computed := s.s.FillTracked()
		stats[i] = st
		if computed {
			e.fills.Add(1)
			if st.FastPath {
				e.fastFills.Add(1)
			}
		}
	}
	return stats
}

// FillCounters reports how many batch-fill mask computations the engine has
// run and how many of those the canonical-mask memcpy fast path served —
// the /metrics fast-path hit rate.
func (e *Engine) FillCounters() (fills, fastPath int64) {
	return e.fills.Load(), e.fastFills.Load()
}

// StepResult is the outcome of one fused Session.Step: termination, the
// jump-forward continuation (valid until the next call on the session), and
// fill instrumentation.
type StepResult = serve.StepResult

// sessionState is the pooled per-sequence surface a Session drives: plain
// grammar sessions (serve.Session) and structural-tag dispatcher sessions
// (structtag.Session) both satisfy it, so the engine's batch loops, the
// gateway, and speculative decoding treat the two modes uniformly.
type sessionState interface {
	Step(id int32) (serve.StepResult, error)
	Accept(id int32) error
	Fill() maskcache.FillStats
	FillTracked() (maskcache.FillStats, bool)
	Mask() []uint64
	AcceptString(text string) error
	JumpForward() string
	Rollback(n int) error
	HistoryCap() int
	CanTerminate() bool
	IsTerminated() bool
	Close()
}

// Session tracks one generation inside a serving Engine. Matcher is an
// unpooled view of the same grammar session; a Session additionally
// exposes its mask buffer, fuses the per-token work into Step, and returns
// its grammar state to the engine's pool on Close. Sessions are not safe
// for concurrent use; drive each from one goroutine at a time.
type Session struct {
	e *Engine
	// cg is the grammar of a plain session; tags the tag set of a
	// structural-tag session. Exactly one is non-nil.
	cg    *CompiledGrammar
	tags  *CompiledTagSet
	s     sessionState
	specW spec.Window
}

// Step is the fused per-token call for driving one sequence directly:
// accept the sampled token, probe the jump-forward continuation, and fill
// Mask for the next step. Batch loops that overlap fills with the GPU use
// Accept instead and let FillBatch compute the mask.
func (s *Session) Step(id int32) (StepResult, error) { return s.s.Step(id) }

// Accept advances the session by the sampled token without recomputing the
// mask — the batch-serving path where the next round's FillBatch fills every
// stale mask under the GPU step. Accepting the stop token
// terminates the session.
func (s *Session) Accept(id int32) error { return s.s.Accept(id) }

// Fill recomputes the mask for the next decoding step (Step does this
// automatically; Fill is for after AcceptString/Rollback).
func (s *Session) Fill() maskcache.FillStats { return s.s.Fill() }

// Mask is the allowed-token bitmask for the next decoding step: bit i set
// means token i keeps the output inside the grammar. The slice is owned by
// the session and rewritten by Step/Fill.
func (s *Session) Mask() []uint64 { return s.s.Mask() }

// AcceptString advances the session by raw bytes as one checkpoint (prompt
// priming or jump-forward insertion); call Fill (or the next Step) before
// reading Mask again.
func (s *Session) AcceptString(text string) error { return s.s.AcceptString(text) }

// JumpForward returns the deterministic continuation of the current state
// (Appendix B), or "" when the next byte is ambiguous.
func (s *Session) JumpForward() string { return s.s.JumpForward() }

// Rollback undoes the last n Step/AcceptString calls; call Fill before
// reading Mask again.
func (s *Session) Rollback(n int) error { return s.s.Rollback(n) }

// HistoryCap returns the session's rollback window: the largest number of
// Step/AcceptString calls that can ever be undone (configured with
// WithMaxRollback). Speculative draft windows are bounded by it.
func (s *Session) HistoryCap() int { return s.s.HistoryCap() }

// SpecResult is the outcome of one speculative draft-verify step: how many
// draft tokens were proposed, speculatively accepted by the grammar,
// confirmed by the target model, rolled back, and the bonus token.
type SpecResult = spec.Result

// SpecSampler delivers the target model's verdict at one draft-window
// position, given the grammar's allowed-token mask there. It is consulted
// once per confirmed position plus once for the bonus position, in order —
// a sampler drawing from a seeded RNG consumes exactly the same stream as a
// non-speculative decode, which keeps speculative output byte-identical.
type SpecSampler = spec.Sampler

// ErrSpecWindowExceeded reports a draft window the session's rollback
// history could not retract; the session state is untouched and the step
// should be decoded non-speculatively.
var ErrSpecWindowExceeded = spec.ErrWindowExceeded

// SpeculativeStep runs one draft-verify decode step (speculative decoding
// on the rollback window, §3.3): the draft tokens are speculatively
// accepted under the grammar in one fused pass that records each position's
// allowed-token mask, sample delivers the target model's verdicts against
// those masks, and the rejected suffix is retracted with a single atomic
// Rollback. On return the session has advanced by draft[:res.Accepted] plus
// the bonus token (res.Bonus, EOS terminating the session) — accepted+1
// tokens for one GPU verify pass. Drafts longer than HistoryCap fail with
// ErrSpecWindowExceeded before touching state.
func (s *Session) SpeculativeStep(draft []int32, sample SpecSampler) (SpecResult, error) {
	return spec.Step(s.s, func() { s.s.Fill() }, spec.SliceProposer(draft), sample, &s.specW,
		spec.Options{MaxDraft: len(draft), EOS: s.e.compiler.info.EOSTokenID()})
}

// Checkpoint returns a portable snapshot of the session's current grammar
// position, restorable into any session of the same compiled grammar via
// Engine.OpenSessionAt — fork-style tree exploration across goroutines,
// and the unit the engine's prefix cache stores. Structural-tag sessions
// do not support checkpoints (the dispatcher's segment state is not
// portable) and return an error.
func (s *Session) Checkpoint() (*Checkpoint, error) {
	ps, ok := s.s.(*serve.Session)
	if !ok {
		return nil, fmt.Errorf("xgrammar: structural-tag sessions do not support checkpoints")
	}
	return ps.Checkpoint(), nil
}

// CanTerminate reports whether the stop token may be accepted next: the
// grammar permits stopping here and the stop token has not been accepted
// yet. It is false from the stop token on, until a Rollback undoes it.
func (s *Session) CanTerminate() bool { return s.s.CanTerminate() }

// IsTerminated reports whether the stop token has been accepted.
func (s *Session) IsTerminated() bool { return s.s.IsTerminated() }

// Grammar returns the compiled grammar the session decodes against, or nil
// for a structural-tag session (see Tags).
func (s *Session) Grammar() *CompiledGrammar { return s.cg }

// Tags returns the structural-tag set of a tag session, or nil for a plain
// grammar session.
func (s *Session) Tags() *CompiledTagSet { return s.tags }

// TagSegments returns the completed structural-tag segment spans recorded
// so far for a tag session (a bounded window; see structtag.Session), or
// nil for plain grammar sessions. The slice is owned by the session and
// valid until Close.
func (s *Session) TagSegments() []structtag.SegmentSpan {
	if st, isTag := s.s.(*structtag.Session); isTag {
		return st.SegmentSpans()
	}
	return nil
}

// InTag reports the active structural-tag index for a tag session currently
// inside a constrained segment; ok is false in free text and for plain
// grammar sessions.
func (s *Session) InTag() (tag int, ok bool) {
	if st, isTag := s.s.(*structtag.Session); isTag && st.InTag() {
		return st.TagIndex(), true
	}
	return 0, false
}

// Close releases the session's grammar state back to the engine pool. The
// session must not be used afterwards.
func (s *Session) Close() { s.s.Close() }
