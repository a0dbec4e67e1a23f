// Package server is the structured-generation gateway: an OpenAI-style HTTP
// front door over the continuous-batching xgrammar.Engine, backed by the
// compiled-grammar LRU and (when attached) the disk-backed grammar store.
//
// Endpoints:
//
//	POST /v1/grammars      register + compile a grammar; returns its
//	                       content-addressed ID (stable across restarts)
//	GET  /v1/grammars/{id} metadata for a registered grammar
//	POST /v1/generate      grammar-constrained generation over the simulated
//	                       LLM; "stream": true switches to SSE
//	GET  /healthz          liveness
//	GET  /metrics          engine throughput, fill p50/p99, compile-cache and
//	                       store hit rates
//
// Admission is bounded: at most MaxInflight requests hold the expensive
// path (inline grammar compilation and decoding) concurrently; excess
// requests are rejected with 429 so overload degrades loudly instead of
// queueing without bound. Admitted requests join the live continuous batch
// (they do not wait for a batch boundary).
package server

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xgrammar"
	"xgrammar/internal/backend"
	"xgrammar/internal/backend/simllm"
	"xgrammar/internal/obs"
	"xgrammar/internal/quantile"
)

// Config configures a gateway.
type Config struct {
	// Engine is the serving engine (grammar compiler + session pools).
	// Required.
	Engine *xgrammar.Engine
	// MaxInflight bounds concurrently decoding generations; requests beyond
	// it receive 429. Zero or negative means 64.
	MaxInflight int
	// MaxTokens is the per-request decode-step budget cap (and default when
	// the request does not set one). Zero or negative means 256.
	MaxTokens int
	// GPUStep is the simulated forward-pass duration each decode round
	// overlaps its batch mask fill with. Zero disables the pacing timer
	// (tests; benchmark-style runs).
	GPUStep time.Duration
	// MaxBodyBytes caps request body size (413 beyond). Zero or negative
	// means 8 MB — grammar sources are text; nothing legitimate is larger.
	MaxBodyBytes int64
	// Backends maps request "model" names to model backends. Requests that
	// name no model use the entry under "" — or, when none is configured,
	// the built-in seeded simulated sampler. Requests naming an unmapped
	// model are rejected with 404.
	Backends map[string]backend.Backend
	// Tracer is the request-lifecycle tracer behind /debug/requests and the
	// Prometheus stage histograms. nil gets a default enabled tracer; pass
	// obs.New(obs.Config{Disabled: true}) to turn tracing off.
	Tracer *obs.Tracer
	// AccessLog, when set, receives one record per /v1/generate outcome —
	// completions and error responses alike.
	AccessLog func(AccessRecord)
}

// Server is the HTTP gateway. It implements http.Handler.
type Server struct {
	cfg    Config
	eng    *xgrammar.Engine
	comp   *xgrammar.Compiler
	b      *batcher
	mux    *http.ServeMux
	start  time.Time
	tracer *obs.Tracer

	seedCtr  atomic.Int64
	inflight atomic.Int64
	requests atomic.Int64
	rejected atomic.Int64

	// backends maps model names to backends ("" is the default); bstats
	// carries per-backend request/error/token counters and latency rings.
	backends map[string]backend.Backend
	bstatsMu sync.Mutex
	bstats   map[string]*backendStats

	// specs remembers the grammar spec behind every ID this process has
	// compiled, so structural tags can reference registered grammars by ID
	// (the compiled blob alone cannot be re-composed with an end tag).
	specs sync.Map // id -> xgrammar.GrammarSpec

	// tagSets memoizes compiled structural-tag dispatchers per request
	// shape, so repeated tool-calling requests share dispatcher session
	// pools (the per-tag segment grammars are additionally cached in the
	// compiled-grammar LRU).
	tagMu   sync.Mutex
	tagSets map[string]*xgrammar.CompiledTagSet
}

// maxTagSets bounds the tag-set memo; beyond it the memo is reset (the
// per-tag grammars stay warm in the compiled-grammar LRU, so a reset only
// costs trie rebuilds).
const maxTagSets = 256

// New returns a gateway over the engine.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxTokens <= 0 {
		cfg.MaxTokens = 256
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.New(obs.Config{})
	}
	comp := cfg.Engine.Compiler()
	s := &Server{
		cfg:      cfg,
		eng:      cfg.Engine,
		comp:     comp,
		b:        newBatcher(cfg.Engine, comp.TokenizerInfo().EOSTokenID(), cfg.GPUStep, cfg.Tracer),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		tracer:   cfg.Tracer,
		tagSets:  map[string]*xgrammar.CompiledTagSet{},
		backends: map[string]backend.Backend{},
		bstats:   map[string]*backendStats{},
	}
	for name, bk := range cfg.Backends {
		s.backends[name] = bk
	}
	if s.backends[""] == nil {
		s.backends[""] = simllm.NewSampler(comp.TokenizerInfo().EOSTokenID())
	}
	// Wire wire-level attempt timing into backends that support it (the
	// httpllm adapter): retried attempts land in the backend_attempt
	// histogram the per-step backend span cannot see.
	for _, bk := range s.backends {
		if ao, ok := bk.(interface {
			SetAttemptObserver(func(time.Duration, error))
		}); ok {
			ao.SetAttemptObserver(func(d time.Duration, err error) {
				s.tracer.ObserveStage(obs.StageBackendAttempt, d)
			})
		}
	}
	s.mux.HandleFunc("POST /v1/grammars", s.handleRegister)
	s.mux.HandleFunc("GET /v1/grammars/{id}", s.handleGetGrammar)
	s.mux.HandleFunc("POST /v1/generate", s.handleGenerate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	return s
}

// Tracer returns the gateway's request-lifecycle tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the decode loop; in-flight generations finish with
// finish_reason "shutdown".
func (s *Server) Close() { s.b.close() }

// GrammarRequest is the wire form of a grammar spec.
type GrammarRequest struct {
	// Kind is "ebnf", "json_schema", "regex", or "builtin".
	Kind string `json:"kind"`
	// Source is the grammar text: EBNF source, a JSON Schema document, a
	// regex pattern, or a builtin name (json, xml, python).
	Source string `json:"source"`
	// AllowAdditionalProperties relaxes JSON Schema object matching.
	AllowAdditionalProperties bool `json:"allow_additional_properties,omitempty"`
}

func (g GrammarRequest) spec() xgrammar.GrammarSpec {
	return xgrammar.GrammarSpec{
		Kind:   xgrammar.GrammarKind(g.Kind),
		Source: g.Source,
		Schema: xgrammar.SchemaOptions{AllowAdditionalProperties: g.AllowAdditionalProperties},
	}
}

// GrammarResponse describes a registered grammar.
type GrammarResponse struct {
	ID        string `json:"id"`
	PDANodes  int    `json:"pda_nodes"`
	PDAEdges  int    `json:"pda_edges"`
	MaskCache bool   `json:"mask_cache"`
	// Diagnostics lists JSON Schema constraints the grammar enforces only
	// partially (single-sided bounds beyond their sign, number bounds); the
	// grammar is still a sound over-approximation. Empty for exact grammars
	// and for grammars loaded from the disk store.
	Diagnostics []string `json:"diagnostics,omitempty"`
}

func grammarResponse(id string, cg *xgrammar.CompiledGrammar) GrammarResponse {
	st := cg.Stats()
	return GrammarResponse{
		ID: id, PDANodes: st.PDANodes, PDAEdges: st.PDAEdges, MaskCache: st.HasMaskCache,
		Diagnostics: cg.SchemaDiagnostics(),
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req GrammarRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		return
	}
	// Registration compiles, so it takes an admission slot like generation:
	// a flood of distinct grammars cannot run unbounded vocabulary scans.
	if s.inflight.Add(1) > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		s.rejected.Add(1)
		httpError(w, http.StatusTooManyRequests, "server at capacity (%d in flight)", s.cfg.MaxInflight)
		return
	}
	defer s.inflight.Add(-1)
	spec := req.spec()
	id, err := s.comp.SpecID(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	t0 := time.Now()
	cg, outcome, err := s.comp.CompileSpecOutcome(spec)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "compile: %v", err)
		return
	}
	s.tracer.ObserveStage(resolveStage(outcome), time.Since(t0))
	s.specs.Store(id, spec)
	writeJSON(w, http.StatusOK, grammarResponse(id, cg))
}

// resolveStage maps a compiler resolve outcome to its trace stage: a real
// compile is StageCompile, everything cheaper (LRU hit, coalesced build,
// disk-store load) is StageResolve.
func resolveStage(outcome xgrammar.ResolveOutcome) obs.Stage {
	if outcome == xgrammar.ResolveCompiled {
		return obs.StageCompile
	}
	return obs.StageResolve
}

func (s *Server) handleGetGrammar(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cg, ok := s.comp.GrammarByID(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown grammar %q", id)
		return
	}
	writeJSON(w, http.StatusOK, grammarResponse(id, cg))
}

// GenerateRequest is the wire form of POST /v1/generate. The grammar comes
// either by reference (GrammarID, from a prior POST /v1/grammars — served
// from the LRU or the disk store, never recompiled) or inline.
type GenerateRequest struct {
	GrammarID string `json:"grammar_id,omitempty"`
	GrammarRequest
	// Model selects the model backend serving the generation (the gateway's
	// Backends map); empty uses the default backend (the seeded simulated
	// sampler unless the deployment configured one).
	Model string `json:"model,omitempty"`
	// Prompt is forwarded to the model backend (real-model backends condition
	// on it; the simulated sampler ignores it).
	Prompt string `json:"prompt,omitempty"`
	// StructuralTags switches the generation to structural-tag dispatch:
	// free text decodes unconstrained while each tag's begin string arms a
	// compiled sub-grammar that is enforced until its end string. Exclusive
	// with the whole-completion grammar fields above.
	StructuralTags []StructuralTagRequest `json:"structural_tags,omitempty"`
	// Tools is the OpenAI-style convenience form: each function tool
	// becomes a structural tag <tool_call name="NAME">…</tool_call> whose
	// content is constrained by the tool's parameter schema.
	Tools []ToolRequest `json:"tools,omitempty"`
	// Prefix primes the generation with already-decoded output (it must be a
	// valid prefix under the grammar).
	Prefix string `json:"prefix,omitempty"`
	// MaxTokens bounds decode steps (capped by the server's MaxTokens).
	MaxTokens int `json:"max_tokens,omitempty"`
	// Seed makes the simulated LLM deterministic; 0 draws a fresh seed.
	Seed int64 `json:"seed,omitempty"`
	// Stream switches the response to server-sent events.
	Stream bool `json:"stream,omitempty"`
	// Speculative enables draft-verify decoding for this generation: each
	// decode round proposes a window of draft tokens, verifies them against
	// the sampler, and retracts the rejected suffix through the grammar's
	// rollback window. Output is byte-identical to a non-speculative
	// request with the same seed; only the decode-round count shrinks.
	Speculative *SpeculativeParams `json:"speculative,omitempty"`
}

// SpeculativeParams is the per-request speculative-decoding knob.
type SpeculativeParams struct {
	// DraftTokens is the draft window per decode round (default 4, capped
	// at 16). Sessions whose rollback history cannot retract a window fall
	// back to plain decoding (reported in /metrics window_fallbacks).
	DraftTokens int `json:"draft_tokens"`
}

// maxDraftTokens caps per-request draft windows (2k checkpoints per window
// with jump-forward must fit the default 64-step rollback history).
const maxDraftTokens = 16

// StructuralTagRequest is one trigger of a structural-tag generation. The
// segment content grammar comes either inline as a JSON Schema or by
// reference to a registered grammar ID.
type StructuralTagRequest struct {
	// Begin is the literal trigger text (e.g. "<tool_call>").
	Begin string `json:"begin"`
	// End closes the segment (e.g. "</tool_call>").
	End string `json:"end"`
	// Schema is the inline JSON Schema constraining the segment content.
	Schema json.RawMessage `json:"schema,omitempty"`
	// GrammarID references a grammar registered via POST /v1/grammars in
	// this process instead of an inline schema. (IDs loaded only from the
	// disk store cannot be used here: composing the end tag needs the
	// source, which blobs do not carry — re-register the grammar first.)
	GrammarID string `json:"grammar_id,omitempty"`
	// AllowAdditionalProperties relaxes inline-schema object matching.
	AllowAdditionalProperties bool `json:"allow_additional_properties,omitempty"`
}

// ToolRequest is an OpenAI-style tool declaration.
type ToolRequest struct {
	// Type must be "function" (or empty, which means function).
	Type     string       `json:"type,omitempty"`
	Function ToolFunction `json:"function"`
}

// ToolFunction describes one callable function.
type ToolFunction struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Parameters is the JSON Schema of the arguments object; empty means
	// any JSON object.
	Parameters json.RawMessage `json:"parameters,omitempty"`
}

// GenerateResponse is the non-streaming response (and the final SSE event).
type GenerateResponse struct {
	GrammarID        string `json:"grammar_id,omitempty"`
	Text             string `json:"text"`
	Tokens           int    `json:"tokens"`
	JumpForwardBytes int    `json:"jump_forward_bytes"`
	// Segments counts completed structural-tag segments (tool calls) in a
	// structural-tag generation.
	Segments     int    `json:"segments,omitempty"`
	FinishReason string `json:"finish_reason"`
	Done         bool   `json:"done"`
}

// StreamChunk is one SSE data event carrying generated text.
type StreamChunk struct {
	Text string `json:"text"`
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	tStart := time.Now()
	var req GenerateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		return
	}
	tr := s.tracer.Start(req.Model, req.GrammarID)
	if tr != nil {
		w.Header().Set("X-Request-Id", strconv.FormatUint(tr.ID(), 10))
	}
	var id string
	// fail answers an error and seals the trace/access-log record, so every
	// /v1/generate outcome — completion or rejection — leaves one line.
	fail := func(code int, format string, args ...any) {
		httpError(w, code, format, args...)
		reason := "error:" + strconv.Itoa(code)
		s.logAccess(req.Model, id, reason, nil, tStart, tr.Finish(reason, 0, 0))
	}

	// Bounded admission first: the in-flight slot covers everything
	// expensive — inline grammar compilation (a full vocabulary scan on a
	// cache miss) as well as decoding — so overload is a loud 429, not an
	// unbounded queue of compiles.
	if s.inflight.Add(1) > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		s.rejected.Add(1)
		fail(http.StatusTooManyRequests, "server at capacity (%d in flight)", s.cfg.MaxInflight)
		return
	}
	defer s.inflight.Add(-1)
	// Clock reads chain stage boundaries: admission ends where grammar
	// resolution begins.
	tResolve := tr.ObserveSince(obs.StageAdmission, tStart)

	// Resolve the grammar or structural-tag set. By-ID never compiles;
	// inline specs and per-tag segment grammars go through the compile
	// cache and store.
	var cg *xgrammar.CompiledGrammar
	var tagSet *xgrammar.CompiledTagSet
	hasTags := len(req.StructuralTags) > 0 || len(req.Tools) > 0
	switch {
	case hasTags:
		if req.GrammarID != "" || req.Kind != "" || req.Source != "" {
			fail(http.StatusBadRequest, "structural_tags/tools and whole-completion grammar fields are exclusive")
			return
		}
		var code int
		var compiled bool
		var err error
		if tagSet, compiled, code, err = s.resolveTagSet(&req); err != nil {
			fail(code, "%v", err)
			return
		}
		stage := obs.StageResolve
		if compiled {
			stage = obs.StageCompile
		}
		tr.ObserveSince(stage, tResolve)
		s.b.tagRequests.Add(1)
	case req.GrammarID != "":
		var ok bool
		if cg, ok = s.comp.GrammarByID(req.GrammarID); !ok {
			fail(http.StatusNotFound, "unknown grammar %q (register it via POST /v1/grammars)", req.GrammarID)
			return
		}
		id = req.GrammarID
		tr.ObserveSince(obs.StageResolve, tResolve)
	default:
		spec := req.spec()
		var err error
		if id, err = s.comp.SpecID(spec); err != nil {
			fail(http.StatusBadRequest, "%v", err)
			return
		}
		var outcome xgrammar.ResolveOutcome
		if cg, outcome, err = s.comp.CompileSpecOutcome(spec); err != nil {
			fail(http.StatusUnprocessableEntity, "compile: %v", err)
			return
		}
		tr.ObserveSince(resolveStage(outcome), tResolve)
		tr.SetGrammarID(id)
	}

	maxTokens := req.MaxTokens
	if maxTokens <= 0 || maxTokens > s.cfg.MaxTokens {
		maxTokens = s.cfg.MaxTokens
	}
	seed := req.Seed
	if seed == 0 {
		seed = time.Now().UnixNano() ^ s.seedCtr.Add(1)<<32
	}

	bk, ok := s.backends[req.Model]
	if !ok {
		fail(http.StatusNotFound, "unknown model %q", req.Model)
		return
	}
	bkStats := s.backendStats(bk.Name())
	bkStats.requests.Add(1)
	seq, err := bk.Open(backend.Request{
		Prompt:    req.Prompt,
		Seed:      seed,
		MaxTokens: maxTokens,
	})
	if err != nil {
		bkStats.errors.Add(1)
		fail(http.StatusBadGateway, "backend %s: %v", bk.Name(), err)
		return
	}

	var sess *xgrammar.Session
	if tagSet != nil {
		// Structural-tag sessions opt out of the prefix cache (dispatcher
		// state is not checkpointable) and replay the prefix cold — the
		// byte-identity contract holds either way.
		sess = s.eng.OpenTagSession(tagSet)
		if req.Prefix != "" {
			if err := sess.AcceptString(req.Prefix); err != nil {
				sess.Close()
				seq.Close()
				fail(http.StatusBadRequest, "prefix: %v", err)
				return
			}
			sess.Fill()
		}
	} else {
		// Plain grammar sessions join through the warm-start acquisition
		// layer: radix lookup, checkpoint restore, residual replay, and the
		// first mask fill, traced as one prefix_lookup span.
		tPrefix := time.Now()
		var err error
		sess, _, err = s.eng.AcquireSession(cg, req.Prefix)
		if req.Prefix != "" {
			tr.ObserveSince(obs.StagePrefixLookup, tPrefix)
		}
		if err != nil {
			seq.Close()
			fail(http.StatusBadRequest, "prefix: %v", err)
			return
		}
	}
	if req.Prefix != "" {
		if !seq.ObserveForced(req.Prefix) {
			sess.Close()
			seq.Close()
			fail(http.StatusUnprocessableEntity, "backend %s cannot absorb the prefix", bk.Name())
			return
		}
	}
	// Chunk capacity covers the worst case per committed token: the sampled
	// chunk plus a jump-forward chunk, and for structural-tag sequences a
	// trigger injection plus its jump-forward on the same round.
	chunkCap := 2*maxTokens + 4
	if tagSet != nil {
		chunkCap = 4*maxTokens + 4
	}
	q := &genSeq{
		ctx:       r.Context(),
		sess:      sess,
		seq:       seq,
		remaining: maxTokens,
		chunks:    make(chan string, chunkCap),
		done:      make(chan struct{}),
	}
	if tagSet != nil {
		q.isTag = true
		_, q.lastInTag = sess.InTag()
		for _, t := range tagSet.Tags() {
			q.begins = append(q.begins, t.Begin)
		}
	}
	if req.Speculative != nil {
		k := req.Speculative.DraftTokens
		if k <= 0 {
			k = 4
		}
		if k > maxDraftTokens {
			k = maxDraftTokens
		}
		q.draftK = k
		s.b.specRequests.Add(1)
	}
	q.trace = tr
	t0 := time.Now()
	q.submitAt = t0
	if !s.b.submit(q) {
		sess.Close()
		seq.Close()
		fail(http.StatusServiceUnavailable, "server shutting down")
		return
	}

	if req.Stream {
		s.streamResponse(w, q, id, req.Prefix)
		bkStats.observe(q, time.Since(t0))
		s.logAccess(req.Model, id, q.finishReason, q, tStart, tr.Finish(q.finishReason, q.tokens, q.jfBytes))
		return
	}
	var sb strings.Builder
	sb.WriteString(req.Prefix)
	for chunk := range q.chunks {
		sb.WriteString(chunk)
	}
	<-q.done
	bkStats.observe(q, time.Since(t0))
	s.logAccess(req.Model, id, q.finishReason, q, tStart, tr.Finish(q.finishReason, q.tokens, q.jfBytes))
	writeJSON(w, http.StatusOK, GenerateResponse{
		GrammarID:        id,
		Text:             sb.String(),
		Tokens:           q.tokens,
		JumpForwardBytes: q.jfBytes,
		Segments:         q.segments,
		FinishReason:     q.finishReason,
		Done:             true,
	})
}

// resolveTagSet builds (or memo-resolves) the compiled structural-tag set
// for a generate request, merging explicit structural_tags with the
// OpenAI-style tools convenience form. compiled reports whether this call
// ran CompileStructuralTags (vs a memo hit), so the tracer can separate the
// cheap and expensive resolution stages. The returned code is the HTTP
// status to use on error.
func (s *Server) resolveTagSet(req *GenerateRequest) (_ *xgrammar.CompiledTagSet, compiled bool, _ int, _ error) {
	var tags xgrammar.StructuralTags
	for i, tr := range req.StructuralTags {
		if tr.Begin == "" || tr.End == "" {
			return nil, false, http.StatusBadRequest, fmt.Errorf("structural_tags[%d]: begin and end are required", i)
		}
		var spec xgrammar.GrammarSpec
		switch {
		case tr.GrammarID != "" && len(tr.Schema) > 0:
			return nil, false, http.StatusBadRequest, fmt.Errorf("structural_tags[%d]: schema and grammar_id are exclusive", i)
		case tr.GrammarID != "":
			v, ok := s.specs.Load(tr.GrammarID)
			if !ok {
				return nil, false, http.StatusNotFound, fmt.Errorf(
					"structural_tags[%d]: unknown grammar %q (register it via POST /v1/grammars first; store-only IDs cannot be composed with an end tag)", i, tr.GrammarID)
			}
			spec = v.(xgrammar.GrammarSpec)
		case len(tr.Schema) > 0:
			spec = xgrammar.GrammarSpec{
				Kind:   xgrammar.KindJSONSchema,
				Source: string(tr.Schema),
				Schema: xgrammar.SchemaOptions{AllowAdditionalProperties: tr.AllowAdditionalProperties},
			}
		default:
			return nil, false, http.StatusBadRequest, fmt.Errorf("structural_tags[%d]: schema or grammar_id is required", i)
		}
		tags = append(tags, xgrammar.StructuralTag{Begin: tr.Begin, Grammar: spec, End: tr.End})
	}
	for i, tool := range req.Tools {
		if tool.Type != "" && tool.Type != "function" {
			return nil, false, http.StatusBadRequest, fmt.Errorf("tools[%d]: unsupported tool type %q", i, tool.Type)
		}
		if tool.Function.Name == "" {
			return nil, false, http.StatusBadRequest, fmt.Errorf("tools[%d]: function name is required", i)
		}
		params := tool.Function.Parameters
		if len(params) == 0 {
			params = json.RawMessage(`{"type": "object"}`)
		}
		tags = append(tags, xgrammar.StructuralTag{
			Begin:   fmt.Sprintf("<tool_call name=%q>", tool.Function.Name),
			Grammar: xgrammar.GrammarSpec{Kind: xgrammar.KindJSONSchema, Source: string(params)},
			End:     "</tool_call>",
		})
	}

	// Memo key: the content-addressed identity of every tag.
	h := sha256.New()
	for _, t := range tags {
		tid, err := s.comp.SpecID(t.Grammar)
		if err != nil {
			return nil, false, http.StatusBadRequest, err
		}
		fmt.Fprintf(h, "%q|%q|%s|", t.Begin, t.End, tid)
	}
	key := string(h.Sum(nil))
	s.tagMu.Lock()
	ts, ok := s.tagSets[key]
	s.tagMu.Unlock()
	if ok {
		return ts, false, 0, nil
	}
	ts, err := s.comp.CompileStructuralTags(tags)
	if err != nil {
		return nil, false, http.StatusUnprocessableEntity, err
	}
	s.tagMu.Lock()
	if prev, ok := s.tagSets[key]; ok {
		ts = prev // another request won the compile race; share its pools
	} else {
		if len(s.tagSets) >= maxTagSets {
			s.tagSets = map[string]*xgrammar.CompiledTagSet{}
		}
		s.tagSets[key] = ts
	}
	s.tagMu.Unlock()
	return ts, true, 0, nil
}

// streamResponse writes the generation as server-sent events: one data
// event per text chunk (the primed prefix first, so concatenated chunks
// equal the non-streaming Text), a final summary event, then the [DONE]
// sentinel.
func (s *Server) streamResponse(w http.ResponseWriter, q *genSeq, id, prefix string) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	// Stream-write wall time is accumulated locally and reported once at the
	// end — one trace event instead of one per SSE chunk.
	var streamWall time.Duration
	var writes int
	writeEvent := func(v any) {
		var t0 time.Time
		if q.trace != nil {
			t0 = time.Now()
		}
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "data: %s\n\n", data)
		if flusher != nil {
			flusher.Flush()
		}
		if !t0.IsZero() {
			streamWall += time.Since(t0)
			writes++
		}
	}
	if prefix != "" {
		writeEvent(StreamChunk{Text: prefix})
	}
	for chunk := range q.chunks {
		writeEvent(StreamChunk{Text: chunk})
	}
	<-q.done
	writeEvent(GenerateResponse{
		GrammarID:        id,
		Tokens:           q.tokens,
		JumpForwardBytes: q.jfBytes,
		Segments:         q.segments,
		FinishReason:     q.finishReason,
		Done:             true,
	})
	fmt.Fprint(w, "data: [DONE]\n\n")
	if flusher != nil {
		flusher.Flush()
	}
	if writes > 0 {
		q.trace.ObserveN(obs.StageStream, writes, streamWall)
	}
}

// backendStats aggregates one model backend's gateway-side activity.
type backendStats struct {
	requests atomic.Int64
	errors   atomic.Int64
	tokens   atomic.Int64
	lats     *quantile.Ring // bounded ring of per-request walls
}

// maxBackendLats bounds each backend's latency ring.
const maxBackendLats = 1024

// observe records one finished generation against its backend.
func (st *backendStats) observe(q *genSeq, wall time.Duration) {
	st.tokens.Add(int64(q.tokens))
	if q.finishReason == FinishError {
		st.errors.Add(1)
	}
	st.lats.Observe(wall)
}

// snapshot renders the wire form of the stats.
func (st *backendStats) snapshot() BackendMetrics {
	q := st.lats.Quantiles(0.50, 0.99)
	return BackendMetrics{
		Requests:     st.requests.Load(),
		Errors:       st.errors.Load(),
		Tokens:       st.tokens.Load(),
		LatencyP50MS: float64(q[0].Nanoseconds()) / 1e6,
		LatencyP99MS: float64(q[1].Nanoseconds()) / 1e6,
	}
}

// backendStats returns (creating on first use) the stats bucket for a
// backend name.
func (s *Server) backendStats(name string) *backendStats {
	s.bstatsMu.Lock()
	defer s.bstatsMu.Unlock()
	st, ok := s.bstats[name]
	if !ok {
		st = &backendStats{lats: quantile.NewRing(maxBackendLats)}
		s.bstats[name] = st
	}
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ms": float64(time.Since(s.start).Microseconds()) / 1e3,
	})
}

// Metrics is the GET /metrics response: gateway counters, engine
// throughput, batch-fill latency percentiles, and the hit rates of both
// grammar-artifact layers (in-memory LRU and disk store).
type Metrics struct {
	UptimeMS float64 `json:"uptime_ms"`
	Requests int64   `json:"requests_total"`
	Rejected int64   `json:"requests_rejected"`
	Inflight int64   `json:"requests_inflight"`
	// Backend labels the decode/fill gauges below with the default model
	// backend the batch decodes against (per-model breakdown in Backends).
	Backend          string  `json:"backend"`
	LiveBatch        int64   `json:"live_batch"`
	PeakBatch        int64   `json:"peak_batch"`
	DecodeRounds     int64   `json:"decode_rounds"`
	TokensGenerated  int64   `json:"tokens_generated"`
	JumpForwardBytes int64   `json:"jump_forward_bytes"`
	TokensPerSec     float64 `json:"tokens_per_sec"`
	FillP50US        float64 `json:"fill_p50_us"`
	FillP99US        float64 `json:"fill_p99_us"`
	// Fills counts computed token-mask fills (idempotent re-fills excluded);
	// FillFastPath counts those served by the canonical-mask memcpy fast
	// path, and FillFastPathRate is their ratio.
	Fills            int64   `json:"fills_total"`
	FillFastPath     int64   `json:"fill_fastpath_total"`
	FillFastPathRate float64 `json:"fill_fastpath_rate"`

	Speculative    SpeculativeMetrics   `json:"speculative"`
	StructuralTags StructuralTagMetrics `json:"structural_tags"`
	CompileCache   CompileCacheMetrics  `json:"compile_cache"`
	PrefixCache    PrefixCacheMetrics   `json:"prefix_cache"`
	Store          StoreMetrics         `json:"store"`
	// Backends breaks requests, backend errors, generated tokens, and
	// request-latency percentiles down per model backend.
	Backends map[string]BackendMetrics `json:"backends"`
}

// BackendMetrics is one model backend's request/error/latency breakdown.
type BackendMetrics struct {
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	Tokens       int64   `json:"tokens"`
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP99MS float64 `json:"latency_p99_ms"`
}

// StructuralTagMetrics aggregates structural-tag (tool-calling) activity
// per phase: tokens decoded in free text versus inside constrained tag
// segments, segments opened and closed, and the forced trigger bytes the
// simulated model spent opening tool calls.
type StructuralTagMetrics struct {
	Requests       int64 `json:"requests"`
	SegmentsOpened int64 `json:"segments_opened"`
	SegmentsClosed int64 `json:"segments_closed"`
	FreeTokens     int64 `json:"free_tokens"`
	TagTokens      int64 `json:"tag_tokens"`
	TriggerBytes   int64 `json:"trigger_bytes"`
}

// SpeculativeMetrics aggregates draft-verify decoding activity: how many
// draft tokens were proposed, speculatively accepted by the grammar,
// confirmed by the sampler, and how many sequences fell back to plain
// decoding because their rollback window was too small for the requested
// draft. RoundsSaved sums, over sequences, the decode rounds that
// sequence did not need (its confirmed draft tokens); concurrent
// sequences share batch rounds, so the batcher's decode_rounds shrinks by
// less than this total when the batch is deeper than one.
type SpeculativeMetrics struct {
	Requests        int64   `json:"requests"`
	ProposedTokens  int64   `json:"proposed_tokens"`
	DraftedTokens   int64   `json:"drafted_tokens"`
	AcceptedTokens  int64   `json:"accepted_tokens"`
	AcceptanceRate  float64 `json:"acceptance_rate"`
	RoundsSaved     int64   `json:"seq_rounds_saved"`
	WindowFallbacks int64   `json:"window_fallbacks"`
}

// CompileCacheMetrics mirrors xgrammar.CompileCacheStats on the wire.
type CompileCacheMetrics struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Builds    int64 `json:"builds"`
	Compiles  int64 `json:"compiles"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// PrefixCacheMetrics reports the cross-request constraint-state prefix
// cache: radix-cache lookup outcomes and occupancy plus the acquisition
// layer's warm-start byte accounting. All zero when the cache is disabled.
type PrefixCacheMetrics struct {
	Enabled      bool    `json:"enabled"`
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	HitRate      float64 `json:"hit_rate"`
	Evictions    int64   `json:"evictions"`
	EvictedBytes int64   `json:"evicted_bytes"`
	Entries      int     `json:"entries"`
	Bytes        int64   `json:"bytes"`
	MaxBytes     int64   `json:"max_bytes"`
	// Acquisition-layer counters: sessions that joined through Acquire,
	// those warm-started from a checkpoint, exact full-prefix hits, and the
	// prefix bytes skipped versus replayed through the matcher.
	Acquires      int64 `json:"acquires"`
	WarmStarts    int64 `json:"warm_starts"`
	ExactHits     int64 `json:"exact_hits"`
	BytesReused   int64 `json:"bytes_reused"`
	BytesReplayed int64 `json:"bytes_replayed"`
}

// StoreMetrics mirrors xgrammar.StoreStats on the wire.
type StoreMetrics struct {
	Attached    bool  `json:"attached"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	Quarantined int64 `json:"quarantined"`
	Preloaded   int64 `json:"preloaded"`
	Blobs       int   `json:"blobs"`
}

func (s *Server) prefixCacheMetrics() PrefixCacheMetrics {
	pc := s.eng.PrefixCacheStats()
	pa := s.eng.PrefixAcquireStats()
	return PrefixCacheMetrics{
		Enabled:       pc.MaxBytes > 0,
		Hits:          pc.Hits,
		Misses:        pc.Misses,
		HitRate:       pc.HitRate(),
		Evictions:     pc.Evictions,
		EvictedBytes:  pc.EvictedBytes,
		Entries:       pc.Entries,
		Bytes:         pc.Bytes,
		MaxBytes:      pc.MaxBytes,
		Acquires:      pa.Acquires,
		WarmStarts:    pa.WarmStarts,
		ExactHits:     pa.ExactHits,
		BytesReused:   pa.BytesReused,
		BytesReplayed: pa.BytesReplayed,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		s.writeProm(w)
		return
	}
	cc := s.comp.CompileCacheStats()
	st := s.comp.StoreStats()
	uptime := time.Since(s.start)
	tokens := s.b.tokens.Load()
	fills, fastFills := s.eng.FillCounters()
	p50, p99 := s.b.fillPercentiles()
	m := Metrics{
		UptimeMS:         float64(uptime.Microseconds()) / 1e3,
		Requests:         s.requests.Load(),
		Rejected:         s.rejected.Load(),
		Inflight:         s.inflight.Load(),
		Backend:          s.backends[""].Name(),
		LiveBatch:        s.b.liveNow.Load(),
		PeakBatch:        s.b.peakBatch.Load(),
		DecodeRounds:     s.b.rounds.Load(),
		TokensGenerated:  tokens,
		JumpForwardBytes: s.b.jfBytes.Load(),
		TokensPerSec:     float64(tokens) / uptime.Seconds(),
		FillP50US:        float64(p50.Nanoseconds()) / 1e3,
		FillP99US:        float64(p99.Nanoseconds()) / 1e3,
		Fills:            fills,
		FillFastPath:     fastFills,
		Speculative:      s.b.specMetrics(),
		StructuralTags:   s.b.tagMetrics(),
		CompileCache: CompileCacheMetrics{
			Hits:      cc.Hits,
			Misses:    cc.Misses,
			Coalesced: cc.Coalesced,
			Builds:    cc.Builds,
			Compiles:  cc.Compiles,
			Evictions: cc.Evictions,
			Entries:   cc.Entries,
			Bytes:     cc.Bytes,
		},
		PrefixCache: s.prefixCacheMetrics(),
		Store: StoreMetrics{
			Attached:    st.Attached,
			Hits:        st.Hits,
			Misses:      st.Misses,
			Writes:      st.Writes,
			WriteErrors: st.WriteErrors,
			Quarantined: st.Quarantined,
			Preloaded:   st.Preloaded,
			Blobs:       st.Blobs,
		},
		Backends: map[string]BackendMetrics{},
	}
	if fills > 0 {
		m.FillFastPathRate = float64(fastFills) / float64(fills)
	}
	s.bstatsMu.Lock()
	stats := make(map[string]*backendStats, len(s.bstats))
	for name, bst := range s.bstats {
		stats[name] = bst
	}
	s.bstatsMu.Unlock()
	for name, bst := range stats {
		m.Backends[name] = bst.snapshot()
	}
	writeJSON(w, http.StatusOK, m)
}

// decodeBody decodes a JSON request body under the configured size cap,
// writing the error response itself. Unbounded bodies would let a flood
// bypass bounded admission by exhausting memory before the 429 check.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		} else {
			httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		}
		return err
	}
	return nil
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
