// Package xgrammar is a flexible and efficient structured-generation engine
// for large language models: a Go reproduction of "XGrammar: Flexible and
// Efficient Structured Generation Engine for Large Language Models"
// (MLSys 2025).
//
// The engine compiles context-free grammars (an EBNF dialect, JSON Schema,
// or the built-in JSON/XML/Python-DSL grammars) into a byte-level pushdown
// automaton, precomputes an adaptive token mask cache over the tokenizer
// vocabulary (§3.1, enhanced by context expansion §3.2), and at decoding
// time produces a per-step token bitmask in microseconds: the mask marks
// exactly the vocabulary tokens that keep the output inside the grammar.
//
// Typical use:
//
//	info := xgrammar.DefaultTokenizer(32000)
//	compiler := xgrammar.NewCompiler(info)
//	cg, err := compiler.CompileBuiltinJSON()
//	m := xgrammar.NewMatcher(cg)
//	mask := make([]uint64, cg.MaskWords())
//	for !m.IsTerminated() {
//	    if _, err := m.FillNextTokenBitmask(mask); err != nil {
//	        // mask shorter than cg.MaskWords()
//	    }
//	    id := sample(logits, mask) // your sampler
//	    m.AcceptToken(id)
//	}
//
// For serving (continuous batching, pooled sessions, overlapped batch mask
// fills), see Engine and Session.
package xgrammar

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"xgrammar/internal/bitset"
	"xgrammar/internal/builtin"
	"xgrammar/internal/ebnf"
	"xgrammar/internal/gramcache"
	"xgrammar/internal/grammar"
	"xgrammar/internal/gramstore"
	"xgrammar/internal/jsonschema"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/matcher"
	"xgrammar/internal/pda"
	"xgrammar/internal/regexconv"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
)

// TokenizerInfo describes the tokenizer the engine generates against:
// vocabulary, special tokens, and stop tokens.
type TokenizerInfo struct {
	tok *tokenizer.Tokenizer
}

// DefaultTokenizer trains (once per size; cached) the built-in byte-level
// BPE tokenizer on the standard synthetic corpus.
func DefaultTokenizer(vocabSize int) *TokenizerInfo {
	return &TokenizerInfo{tok: tokenizer.BuildDefault(vocabSize)}
}

// TrainTokenizer trains a byte-level BPE tokenizer on the given corpus.
func TrainTokenizer(corpusText string, vocabSize int) *TokenizerInfo {
	return &TokenizerInfo{tok: tokenizer.Train(corpusText, vocabSize)}
}

// VocabSize returns the vocabulary size including special tokens.
func (ti *TokenizerInfo) VocabSize() int { return ti.tok.VocabSize() }

// Encode tokenizes text into token ids.
func (ti *TokenizerInfo) Encode(text string) []int32 { return ti.tok.Encode(text) }

// Decode reconstructs the text for a token id sequence.
func (ti *TokenizerInfo) Decode(ids []int32) string { return string(ti.tok.Decode(ids)) }

// TokenBytes returns the byte string of one token.
func (ti *TokenizerInfo) TokenBytes(id int32) []byte { return ti.tok.TokenBytes(id) }

// EOSTokenID returns the stop token id.
func (ti *TokenizerInfo) EOSTokenID() int32 { return tokenizer.EosID }

// IsSpecial reports whether id is a control token.
func (ti *TokenizerInfo) IsSpecial(id int32) bool { return ti.tok.IsSpecial(id) }

// Raw exposes the underlying tokenizer to sibling packages in this module.
func (ti *TokenizerInfo) Raw() *tokenizer.Tokenizer { return ti.tok }

// CompilerOption configures grammar compilation; the defaults enable every
// optimization from the paper.
type CompilerOption func(*compilerConfig)

type compilerConfig struct {
	pdaOpts        pda.Options
	cacheOpts      maskcache.Options
	useCache       bool
	maxHistory     int
	compCacheBytes int64
}

// DefaultCompileCacheBytes is the default byte budget for the compiled-
// grammar LRU cache held by each Compiler.
const DefaultCompileCacheBytes = 64 << 20

func defaultConfig() compilerConfig {
	return compilerConfig{
		pdaOpts:        pda.AllOptimizations,
		cacheOpts:      maskcache.Options{ContextExpansion: true},
		useCache:       true,
		maxHistory:     matcher.DefaultMaxHistory,
		compCacheBytes: DefaultCompileCacheBytes,
	}
}

// WithoutNodeMerging disables the §3.4 node-merging optimization.
func WithoutNodeMerging() CompilerOption {
	return func(c *compilerConfig) { c.pdaOpts.NodeMerging = false }
}

// WithoutRuleInlining disables the §3.4 rule-inlining optimization.
func WithoutRuleInlining() CompilerOption {
	return func(c *compilerConfig) { c.pdaOpts.RuleInlining = false }
}

// WithoutContextExpansion disables the §3.2 context-expansion filter.
func WithoutContextExpansion() CompilerOption {
	return func(c *compilerConfig) { c.cacheOpts.ContextExpansion = false }
}

// WithoutMaskCache disables the adaptive token mask cache entirely; every
// mask is generated by scanning the full vocabulary (the Table 3 baseline).
func WithoutMaskCache() CompilerOption {
	return func(c *compilerConfig) { c.useCache = false }
}

// WithMaxRollback sets the matcher's rollback window in accepted tokens.
func WithMaxRollback(n int) CompilerOption {
	return func(c *compilerConfig) { c.maxHistory = n }
}

// WithBuildWorkers bounds the worker pool that preprocesses the token mask
// cache. Zero (the default) uses one worker per CPU; one forces the serial
// build. The compiled grammar is byte-identical for any worker count.
func WithBuildWorkers(n int) CompilerOption {
	return func(c *compilerConfig) { c.cacheOpts.Workers = n }
}

// WithCompileCacheBytes sets the byte budget of the compiled-grammar LRU
// cache (default DefaultCompileCacheBytes). Zero or negative disables the
// cache: every Compile* call rebuilds from scratch.
func WithCompileCacheBytes(n int64) CompilerOption {
	return func(c *compilerConfig) { c.compCacheBytes = n }
}

// WithoutCompileCache disables the compiled-grammar LRU cache.
func WithoutCompileCache() CompilerOption {
	return func(c *compilerConfig) { c.compCacheBytes = 0 }
}

// Compiler compiles grammars against a fixed tokenizer. It is safe for
// concurrent use: compiled grammars are memoized in a byte-bounded LRU
// keyed by (grammar source, schema options, tokenizer fingerprint, compiler
// config), and concurrent requests for the same grammar are coalesced into
// a single build (singleflight), mirroring upstream XGrammar's
// GrammarCompiler.
type Compiler struct {
	info  *TokenizerInfo
	cfg   compilerConfig
	cache *gramcache.Cache[*CompiledGrammar]
	// store, when attached (AttachStore), persists compiled grammars to disk
	// under the LRU: misses try a blob load before compiling, builds are
	// written back, and WarmStart preloads at boot.
	store *gramstore.Store
	// compiles counts full grammar builds (PDA construction plus the
	// vocabulary mask scan) actually run — unlike the cache's Builds, a
	// disk-store load inserts without incrementing it.
	compiles atomic.Int64
}

// TokenizerInfo returns the tokenizer the compiler compiles against.
func (c *Compiler) TokenizerInfo() *TokenizerInfo { return c.info }

// NewCompiler returns a compiler for the given tokenizer.
func NewCompiler(info *TokenizerInfo, opts ...CompilerOption) *Compiler {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	c := &Compiler{info: info, cfg: cfg}
	if cfg.compCacheBytes > 0 {
		c.cache = gramcache.New[*CompiledGrammar](cfg.compCacheBytes)
	}
	return c
}

// CompiledGrammar is a grammar compiled to a PDA plus (unless disabled) the
// adaptive token mask cache. It is immutable and safe for concurrent use by
// any number of matchers.
type CompiledGrammar struct {
	info  *TokenizerInfo
	pda   *pda.PDA
	cache *maskcache.Cache
	cfg   compilerConfig
	// schemaDiags lists JSON Schema constraints the grammar enforces only
	// partially (single-sided bounds beyond their sign, number bounds).
	// Advisory: not serialized, so grammars loaded from a disk store carry
	// an empty list.
	schemaDiags []string
	// sessPool lazily holds the serving-session pool for this grammar. It
	// lives on the grammar (not the Engine) so its memory is reclaimed with
	// the grammar when the compiled-grammar LRU evicts it.
	sessPoolOnce sync.Once
	sessPool     *serve.SessionPool
	// id is the content-addressed identity (hex of the compile-cache key,
	// identical to Compiler.SpecID for the same spec), set when the grammar
	// routes through the compile cache; "" for directly built grammars. It
	// keys cross-request state derived from the grammar, like the engine's
	// prefix cache.
	id string
}

// ID returns the grammar's content-addressed identity — the same value
// Compiler.SpecID reports for its spec and /v1/grammars serves — or "" for
// grammars built outside a compiler cache path.
func (cg *CompiledGrammar) ID() string { return cg.id }

// SchemaDiagnostics lists the schema constraints this grammar does not
// fully enforce (JSON Schema compiles only; nil when the grammar is exact
// or was loaded from a disk store, which does not persist diagnostics).
// The grammar remains a sound over-approximation: everything it rejects is
// invalid under the schema.
func (cg *CompiledGrammar) SchemaDiagnostics() []string { return cg.schemaDiags }

// sessionPool returns (creating on first use) the grammar's session pool.
func (cg *CompiledGrammar) sessionPool() *serve.SessionPool {
	cg.sessPoolOnce.Do(func() {
		cg.sessPool = serve.NewSessionPool(cg.pda, cg.cache, cg.info.tok, cg.cfg.maxHistory)
	})
	return cg.sessPool
}

// SessionPoolStats reports the grammar's serving-session recycling
// counters: sessions built from scratch and acquisitions served by
// recycling a closed session. Serving leaks show up here — a session that
// never returns to the pool forces the next arrival to build fresh state.
func (cg *CompiledGrammar) SessionPoolStats() (created, reused int64) {
	st := cg.sessionPool().Stats()
	return st.Created, st.Reused
}

// SessionsOutstanding reports the grammar's serving sessions acquired and
// not yet closed. Unlike the recycling counters it is exact under
// concurrency: zero whenever no generation is in flight, unless one leaked.
func (cg *CompiledGrammar) SessionsOutstanding() int64 {
	return cg.sessionPool().Outstanding()
}

// CompileGrammar compiles EBNF source text. Results are served from the
// compiled-grammar cache when the same source (under the same tokenizer and
// compiler configuration) was compiled before; concurrent calls for the same
// source share one build.
func (c *Compiler) CompileGrammar(src string) (*CompiledGrammar, error) {
	return c.cached("ebnf", src, func() (*CompiledGrammar, error) { return c.buildEBNF(src) })
}

func (c *Compiler) buildEBNF(src string) (*CompiledGrammar, error) {
	g, err := ebnf.Parse(src)
	if err != nil {
		return nil, err
	}
	return c.compile(g)
}

// CompileFuture is the result of an asynchronous compilation. It is safe to
// share across goroutines.
type CompileFuture struct {
	done chan struct{}
	cg   *CompiledGrammar
	err  error
}

// Done returns a channel closed when the compilation finishes.
func (f *CompileFuture) Done() <-chan struct{} { return f.done }

// Result blocks until the compilation finishes and returns its outcome.
func (f *CompileFuture) Result() (*CompiledGrammar, error) {
	<-f.done
	return f.cg, f.err
}

// Poll returns the outcome without blocking; ok is false while the
// compilation is still running.
func (f *CompileFuture) Poll() (cg *CompiledGrammar, err error, ok bool) {
	select {
	case <-f.done:
		return f.cg, f.err, true
	default:
		return nil, nil, false
	}
}

// async resolves build on a background goroutine into a CompileFuture.
func async(build func() (*CompiledGrammar, error)) *CompileFuture {
	f := &CompileFuture{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		f.cg, f.err = build()
	}()
	return f
}

// CompileGrammarAsync starts compiling EBNF source on a background goroutine
// and returns immediately. The future resolves to the same cached grammar a
// blocking CompileGrammar call would return, so servers can warm grammars
// while handling other traffic.
func (c *Compiler) CompileGrammarAsync(src string) *CompileFuture {
	return async(func() (*CompiledGrammar, error) { return c.CompileGrammar(src) })
}

// CompileJSONSchemaAsync is the asynchronous variant of CompileJSONSchema.
func (c *Compiler) CompileJSONSchemaAsync(schema []byte, o SchemaOptions) *CompileFuture {
	return async(func() (*CompiledGrammar, error) { return c.CompileJSONSchema(schema, o) })
}

// SchemaOptions configures JSON Schema compilation.
type SchemaOptions struct {
	// AllowAdditionalProperties permits extra object members beyond the
	// declared properties. Default is strict.
	AllowAdditionalProperties bool
}

// CompileJSONSchema compiles a JSON Schema document into a grammar whose
// language is the canonical JSON serializations of schema instances. Results
// are cached like CompileGrammar's, with the schema options part of the key.
func (c *Compiler) CompileJSONSchema(schema []byte, o SchemaOptions) (*CompiledGrammar, error) {
	kind := fmt.Sprintf("schema/ap=%v", o.AllowAdditionalProperties)
	return c.cached(kind, string(schema), func() (*CompiledGrammar, error) { return c.buildJSONSchema(schema, o) })
}

func (c *Compiler) buildJSONSchema(schema []byte, o SchemaOptions) (*CompiledGrammar, error) {
	g, diags, err := jsonschema.CompileFull(schema, jsonschema.Options{
		AllowAdditionalProperties: o.AllowAdditionalProperties,
	})
	if err != nil {
		return nil, err
	}
	cg, err := c.compile(g)
	if err != nil {
		return nil, err
	}
	cg.schemaDiags = diagStrings(diags)
	return cg, nil
}

// CompileRegex compiles a regular expression (the regex subset of JSON
// Schema "pattern": literals, classes, groups, alternation, the standard
// quantifiers) into a grammar matching exactly the strings the pattern
// accepts under search semantics — anchor with ^...$ for full-string
// constrained generation. Results are cached like CompileGrammar's.
func (c *Compiler) CompileRegex(pattern string) (*CompiledGrammar, error) {
	return c.cached("regex", pattern, func() (*CompiledGrammar, error) { return c.buildRegex(pattern) })
}

func (c *Compiler) buildRegex(pattern string) (*CompiledGrammar, error) {
	e, err := regexconv.Convert(pattern)
	if err != nil {
		return nil, err
	}
	g := &grammar.Grammar{Rules: []grammar.Rule{{Name: "root", Body: e}}, Root: 0}
	return c.compile(g)
}

// CompileRegexAsync is the asynchronous variant of CompileRegex.
func (c *Compiler) CompileRegexAsync(pattern string) *CompileFuture {
	return async(func() (*CompiledGrammar, error) { return c.CompileRegex(pattern) })
}

// CompileBuiltinJSON compiles the ECMA-404 JSON grammar.
func (c *Compiler) CompileBuiltinJSON() (*CompiledGrammar, error) {
	return c.cached("builtin", "json", func() (*CompiledGrammar, error) { return c.buildBuiltin("json") })
}

// CompileBuiltinXML compiles the XML-subset grammar.
func (c *Compiler) CompileBuiltinXML() (*CompiledGrammar, error) {
	return c.cached("builtin", "xml", func() (*CompiledGrammar, error) { return c.buildBuiltin("xml") })
}

// CompileBuiltinPythonDSL compiles the Python-DSL grammar.
func (c *Compiler) CompileBuiltinPythonDSL() (*CompiledGrammar, error) {
	return c.cached("builtin", "python", func() (*CompiledGrammar, error) { return c.buildBuiltin("python") })
}

func (c *Compiler) buildBuiltin(name string) (*CompiledGrammar, error) {
	switch name {
	case "json":
		return c.compile(builtin.JSON())
	case "xml":
		return c.compile(builtin.XML())
	case "python":
		return c.compile(builtin.PythonDSL())
	}
	return nil, fmt.Errorf("xgrammar: unknown builtin grammar %q (want json, xml, or python)", name)
}

// ResolveOutcome says how a grammar resolution was served — the distinction
// the request tracer draws between a cheap "resolve" stage and a real
// "compile" stage.
type ResolveOutcome uint8

const (
	// ResolveCached means the compiled-grammar LRU served the call, or it
	// coalesced onto another caller's in-flight build.
	ResolveCached ResolveOutcome = iota
	// ResolveStoreLoad means the grammar was deserialized from the attached
	// disk store (warm path, no compile).
	ResolveStoreLoad
	// ResolveCompiled means this call ran a full compile.
	ResolveCompiled
)

// String returns the outcome's wire name.
func (o ResolveOutcome) String() string {
	switch o {
	case ResolveStoreLoad:
		return "store_load"
	case ResolveCompiled:
		return "compiled"
	}
	return "cached"
}

// cached routes a compilation through the compiled-grammar LRU (when
// enabled), deduplicating concurrent builds of the same key. With a store
// attached, an LRU miss tries the disk blob before building, and a fresh
// build is persisted back (best-effort).
func (c *Compiler) cached(kind, src string, build func() (*CompiledGrammar, error)) (*CompiledGrammar, error) {
	cg, _, err := c.cachedOutcome(kind, src, build)
	return cg, err
}

// cachedOutcome is cached additionally reporting how the call was served.
// The outcome is observed by the closure actually run for this caller: a
// caller coalesced onto another goroutine's in-flight build never runs its
// closure and reports ResolveCached.
func (c *Compiler) cachedOutcome(kind, src string, build func() (*CompiledGrammar, error)) (*CompiledGrammar, ResolveOutcome, error) {
	key := c.cacheKey(kind, src)
	outcome := ResolveCached
	loadOrBuild := func() (*CompiledGrammar, int64, error) {
		if cg, ok := c.storeLoad(key); ok {
			outcome = ResolveStoreLoad
			cg.id = hex.EncodeToString([]byte(key))
			return cg, cg.memoryBytes(), nil
		}
		outcome = ResolveCompiled
		cg, err := build()
		if err != nil {
			return nil, 0, err
		}
		cg.id = hex.EncodeToString([]byte(key))
		c.storeSave(key, cg)
		return cg, cg.memoryBytes(), nil
	}
	if c.cache == nil {
		cg, _, err := loadOrBuild()
		return cg, outcome, err
	}
	cg, err := c.cache.GetOrBuild(key, loadOrBuild)
	return cg, outcome, err
}

// onGrammarEvict registers fn to run with the content-addressed ID of every
// compiled grammar the LRU drops. The serving engine hooks its prefix cache
// here: a checkpoint must never outlive the grammar build it was captured
// from. No-op without a compile cache (nothing is ever evicted).
func (c *Compiler) onGrammarEvict(fn func(id string)) {
	if c.cache == nil {
		return
	}
	c.cache.SetOnEvict(func(key string, _ *CompiledGrammar) {
		fn(hex.EncodeToString([]byte(key)))
	})
}

// cacheKey derives the cache key from everything that determines the
// compiled artifact: grammar kind and source, tokenizer fingerprint, and the
// compiler configuration. The mask-cache worker count is deliberately
// excluded — it does not change the output.
func (c *Compiler) cacheKey(kind, src string) string {
	h := sha256.New()
	fmt.Fprintf(h, "xg1|%s|%016x|ri=%v|nm=%v|in=%+v|cx=%v|mc=%v|mh=%d|",
		kind, c.info.tok.Fingerprint(),
		c.cfg.pdaOpts.RuleInlining, c.cfg.pdaOpts.NodeMerging, c.cfg.pdaOpts.Inline,
		c.cfg.cacheOpts.ContextExpansion, c.cfg.useCache, c.cfg.maxHistory)
	h.Write([]byte(src))
	return string(h.Sum(nil))
}

// CompileCacheStats reports compiled-grammar cache activity.
type CompileCacheStats struct {
	// Hits counts calls served from the cache; Misses counts calls that ran
	// a build; Coalesced counts calls that joined another caller's in-flight
	// build (singleflight).
	Hits, Misses, Coalesced int64
	// Builds counts successful builds inserted; Evictions counts entries
	// dropped to respect the byte budget.
	Builds, Evictions int64
	// Compiles counts full compilations actually run (PDA + vocabulary
	// scan). Unlike Builds it excludes grammars loaded from an attached
	// disk store, so Compiles==0 across a restart proves the warm path.
	Compiles int64
	// Entries and Bytes describe current occupancy; MaxBytes is the budget.
	Entries  int
	Bytes    int64
	MaxBytes int64
}

// CompileCacheStats returns a snapshot of the compiled-grammar cache
// counters; zero-valued when the cache is disabled.
func (c *Compiler) CompileCacheStats() CompileCacheStats {
	if c.cache == nil {
		return CompileCacheStats{Compiles: c.compiles.Load()}
	}
	s := c.cache.Stats()
	return CompileCacheStats{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Coalesced: s.Coalesced,
		Builds:    s.Builds,
		Compiles:  c.compiles.Load(),
		Evictions: s.Evictions,
		Entries:   c.cache.Len(),
		Bytes:     c.cache.Bytes(),
		MaxBytes:  c.cache.MaxBytes(),
	}
}

func (c *Compiler) compile(g *grammar.Grammar) (*CompiledGrammar, error) {
	c.compiles.Add(1)
	p, err := pda.Compile(g, c.cfg.pdaOpts)
	if err != nil {
		return nil, err
	}
	cg := &CompiledGrammar{info: c.info, pda: p, cfg: c.cfg}
	if c.cfg.useCache {
		cg.cache = maskcache.Build(p, c.info.tok, c.cfg.cacheOpts)
	}
	return cg, nil
}

// memoryBytes estimates the resident size of the compiled grammar for the
// LRU byte accounting: PDA structure plus the adaptive mask-cache storage.
func (cg *CompiledGrammar) memoryBytes() int64 {
	n := int64(cg.pda.NumNodes())*48 + int64(cg.pda.NumEdges())*16 + 1024
	if cg.cache != nil {
		n += cg.cache.Stats().StorageBytes
	}
	return n
}

// MaskWords returns the number of uint64 words a token bitmask needs.
func (cg *CompiledGrammar) MaskWords() int {
	return bitset.WordsFor(cg.info.VocabSize())
}

// GrammarText renders the compiled (post-optimization) grammar.
func (cg *CompiledGrammar) GrammarText() string { return cg.pda.Grammar.String() }

// TokenizerInfo returns the tokenizer this grammar was compiled for.
func (cg *CompiledGrammar) TokenizerInfo() *TokenizerInfo { return cg.info }

// CacheStats describes preprocessing results (§3.1–§3.3 statistics).
type CacheStats struct {
	PDANodes            int
	PDAEdges            int
	ContextIndependent  int64
	ContextDependent    int64
	MaxCtxPerNode       int
	AdaptiveBytes       int64
	FullBitsetBytes     int64
	PrefixCharsStepped  int64
	PrefixCharsTotal    int64
	AcceptListNodes     int
	RejectListNodes     int
	WordMaskNodes       int
	CanonicalBytes      int64
	HasMaskCache        bool
	HasContextExpansion bool
}

// Stats reports cache construction statistics; zero-valued when the cache is
// disabled.
func (cg *CompiledGrammar) Stats() CacheStats {
	cs := CacheStats{
		PDANodes:            cg.pda.NumNodes(),
		PDAEdges:            cg.pda.NumEdges(),
		HasMaskCache:        cg.cache != nil,
		HasContextExpansion: cg.cfg.cacheOpts.ContextExpansion,
	}
	if cg.cache != nil {
		s := cg.cache.Stats()
		cs.ContextIndependent = s.CIAccepted + s.CIRejected
		cs.ContextDependent = s.CtxDependent
		cs.MaxCtxPerNode = s.MaxCtxPerNode
		cs.AdaptiveBytes = s.StorageBytes
		cs.FullBitsetBytes = s.FullBitsetBytes
		cs.PrefixCharsStepped = s.CharsStepped
		cs.PrefixCharsTotal = s.CharsTotal
		cs.AcceptListNodes = s.KindCounts[maskcache.AcceptList]
		cs.RejectListNodes = s.KindCounts[maskcache.RejectList]
		cs.WordMaskNodes = s.KindCounts[maskcache.WordMask]
		cs.CanonicalBytes = s.CanonicalBytes
	}
	return cs
}

// Matcher tracks one generation against a compiled grammar. It is an
// unpooled view of the same per-sequence session the serving Engine drives
// (serve.Session): accept, stop-token, rollback and fill behave exactly as
// Session's, but the Matcher never enters the grammar's session pool, so it
// does not show in SessionsOutstanding or SessionPoolStats. It is not safe
// for concurrent use; create one per sequence.
type Matcher struct {
	cg *CompiledGrammar
	s  *serve.Session
}

// NewMatcher returns a matcher at the grammar start state.
func NewMatcher(cg *CompiledGrammar) *Matcher {
	return &Matcher{cg: cg, s: serve.NewSessionPool(cg.pda, cg.cache, cg.info.tok, cg.cfg.maxHistory).Acquire()}
}

// FillNextTokenBitmask writes the allowed-token bitmask for the next
// decoding step into mask. Bit i set means token i keeps the output inside
// the grammar. The mask must have at least MaskWords() words — shorter
// slices return an error (extra words are ignored). FillStats are returned
// for instrumentation.
func (m *Matcher) FillNextTokenBitmask(mask []uint64) (maskcache.FillStats, error) {
	words := m.cg.MaskWords()
	if len(mask) < words {
		return maskcache.FillStats{}, fmt.Errorf(
			"xgrammar: mask has %d words but the grammar needs MaskWords() = %d", len(mask), words)
	}
	return m.s.FillMask(bitset.FromWords(mask[:words], m.cg.info.VocabSize())), nil
}

// AcceptToken advances the matcher by one generated token. Accepting the
// stop token terminates the generation (only legal when the grammar can
// complete). Each accepted token is a rollback checkpoint.
func (m *Matcher) AcceptToken(id int32) error { return m.s.Accept(id) }

// AcceptString advances the matcher by raw bytes (one checkpoint), used for
// jump-forward insertion and prompt priming.
func (m *Matcher) AcceptString(s string) error { return m.s.AcceptString(s) }

// Rollback undoes the last n AcceptToken/AcceptString calls, the stop token
// included. It is atomic: on error (n exceeds the retained history) the
// matcher is unchanged.
func (m *Matcher) Rollback(n int) error { return m.s.Rollback(n) }

// IsTerminated reports whether the stop token has been accepted.
func (m *Matcher) IsTerminated() bool { return m.s.IsTerminated() }

// CanTerminate reports whether the stop token may be accepted next: the
// grammar permits stopping here and the stop token has not been accepted
// yet. It is false from the stop token on, until a Rollback undoes it.
func (m *Matcher) CanTerminate() bool { return m.s.CanTerminate() }

// FindJumpForwardString returns the longest deterministic continuation of
// the current state (Appendix B), or "" when the next byte is ambiguous.
func (m *Matcher) FindJumpForwardString() string { return m.s.JumpForward() }

// NumParallelStacks returns the number of live PDA stacks (a measure of
// grammar ambiguity at this point).
func (m *Matcher) NumParallelStacks() int { return m.s.NumStacks() }

// Branch forks the matcher at its current position in O(current states):
// the persistent execution stack (§3.3) lets output branches — speculative
// drafts, Tree-of-Thought paths, beam candidates — share all deeper stack
// segments. A branch starts with an empty rollback history. Branches share
// internal structures and must be driven from one goroutine; call Discard
// on branches you abandon.
func (m *Matcher) Branch() *Matcher { return &Matcher{cg: m.cg, s: m.s.Fork()} }

// Discard releases a branch's state so the shared stack tree can reclaim
// memory. The matcher must not be used afterwards.
func (m *Matcher) Discard() { m.s.Discard() }

// Reset returns the matcher to the grammar start state.
func (m *Matcher) Reset() { m.s.Reset() }

// ApplyTokenBitmaskInPlace sets logits of masked-out tokens to -Inf, the
// constrained-decoding step from Figure 2.
func ApplyTokenBitmaskInPlace(logits []float32, mask []uint64) {
	negInf := float32(math.Inf(-1))
	for i := range logits {
		if mask[i>>6]&(1<<uint(i&63)) == 0 {
			logits[i] = negInf
		}
	}
}
