// Package engine is the paper's what-if serving model (§3.5, §4.2): a fixed
// batch of requests decoded on a modelled clock, where each step's wall time
// combines the model backend's modelled accelerator time (backend.Timing —
// the llmsim latency profile) with measured grammar CPU time — either
// serialized (mask generation on the critical path) or overlapped (the whole
// batch's masks filled while the GPU step runs, synchronizing before
// sampling). Jump-forward decoding (Appendix B) inserts forced tokens
// without spending decode steps.
//
// It is not a serving path: the gateway's batcher (internal/server) is the
// repository's one continuous-batching loop, and bench/ measures it on the
// wall clock. This package exists so the paper's tables (fig10–fig12,
// tab1–tab2, tab4) can put the comparison engines of internal/baselines
// behind the same loop and a chosen hardware profile.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"xgrammar/internal/backend"
	"xgrammar/internal/baselines"
	"xgrammar/internal/bitset"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
)

// Mode selects how grammar work is scheduled against the GPU.
type Mode int

// Scheduling modes.
const (
	// Unconstrained disables grammar checking entirely.
	Unconstrained Mode = iota
	// Serial puts mask generation on the critical path (vLLM/llama.cpp
	// style in the paper's comparison).
	Serial
	// Overlap hides mask generation behind the GPU decode step and
	// synchronizes before sampling (§3.5).
	Overlap
)

func (m Mode) String() string {
	switch m {
	case Unconstrained:
		return "unconstrained"
	case Serial:
		return "serial"
	default:
		return "overlap"
	}
}

// Config describes one fixed-batch engine configuration.
type Config struct {
	// Model is the model backend sequences decode against. Required.
	Model backend.Backend
	Mode  Mode
	// Grammar supplies grammar sessions; ignored when Mode==Unconstrained.
	Grammar baselines.Backend
	Tok     *tokenizer.Tokenizer
	// JumpForward enables forced-token insertion when the grammar session
	// supports it.
	JumpForward bool
	// GrammarInitTime is the measured preprocessing cost (mask cache
	// build); overlapped with prefill in Overlap mode (§3.5).
	GrammarInitTime time.Duration
	// MaxSteps guards against runaway generations.
	MaxSteps int
	// Ctx cancels the run: every sequence's model side is closed, partial
	// outputs are returned, and Run returns the context's error. Nil means
	// no cancellation.
	Ctx context.Context
}

// Metrics aggregates one run.
type Metrics struct {
	Requests          int
	OutputTokens      int
	DecodeSteps       int
	JumpForwardTokens int
	// TTFT is the mean time from request arrival to first token (prefill +
	// grammar init + first decode step).
	TTFT time.Duration
	// TPOT is the mean, over requests, of decode latency per output token.
	TPOT time.Duration
	// MaskCPU is the total measured grammar CPU time.
	MaskCPU time.Duration
	// GPUTime is the total modelled GPU time (the backend's Timing).
	GPUTime time.Duration
	// Wall is the total modelled wall time.
	Wall time.Duration
	// ModelErrors counts sequences abandoned because their model backend
	// failed mid-stream (the sequence leaves the batch cleanly and its
	// partial output is returned; other sequences are unaffected).
	ModelErrors int
}

// TokensPerSecond is the run's output-token throughput.
func (m Metrics) TokensPerSecond() float64 {
	if m.Wall <= 0 {
		return 0
	}
	return float64(m.OutputTokens) / m.Wall.Seconds()
}

// seqState is one sequence of the batch.
type seqState struct {
	seq       backend.Sequence
	session   baselines.Session // nil: unconstrained
	mask      *bitset.Bitset
	fillDur   time.Duration
	next      int32
	firstTok  bool
	outTokens int
	done      bool
	failed    bool
	finishAt  time.Duration
	output    []byte
}

// consume applies an emitted token to the sequence state.
func (s *seqState) consume(tok *tokenizer.Tokenizer, id int32) {
	if id == tokenizer.EosID {
		s.done = true
		return
	}
	s.output = append(s.output, tok.TokenBytes(id)...)
	s.outTokens++
}

// runner holds the mutable state of one run.
type runner struct {
	cfg     Config
	timing  backend.Timing
	clock   time.Duration
	live    []*seqState // sequences still decoding
	met     Metrics
	ttftSum time.Duration
	ttftN   int
	// decodeWall accumulates step wall time (excluding the admission
	// charge) for the step-capped TPOT fallback.
	decodeWall time.Duration
}

// Run decodes all requests as one fixed batch admitted at time zero.
// Sequences leave the batch as they finish; each decode step combines
// modelled GPU time with measured grammar time — overlapped and
// batch-parallel in Overlap mode, serialized in Serial mode. Outputs are
// returned in the order of reqs. The model sees each request with ID
// rewritten to its index, so deterministic simulation backends key their
// per-sequence randomness the same way however callers number requests.
func Run(cfg Config, reqs []*backend.Request) (Metrics, []string, error) {
	if cfg.Model == nil {
		return Metrics{}, nil, errors.New("engine: Config.Model is required")
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = 8192
	}
	if cfg.Ctx == nil {
		cfg.Ctx = context.Background()
	}
	r := &runner{cfg: cfg, timing: cfg.Model.Timing()}
	r.met.Requests = len(reqs)

	seqs := make([]*seqState, 0, len(reqs))
	defer func() {
		for _, s := range seqs {
			s.seq.Close()
		}
	}()
	maxPrompt := 0
	for i, req := range reqs {
		rq := *req
		rq.ID = i
		seq, err := cfg.Model.Open(rq)
		if err != nil {
			return r.met, nil, fmt.Errorf("engine: open model sequence for %s: %w", req, err)
		}
		s := &seqState{seq: seq, firstTok: true}
		if cfg.Mode != Unconstrained && cfg.Grammar != nil {
			s.session = cfg.Grammar.NewSession()
			s.mask = bitset.New(cfg.Tok.VocabSize())
		}
		seqs = append(seqs, s)
		if req.PromptTokens > maxPrompt {
			maxPrompt = req.PromptTokens
		}
	}
	r.live = append(r.live, seqs...)

	// Admission charge: prompt prefill plus grammar initialization, with the
	// grammar work hidden behind prefill in Overlap mode (Figure 8) and
	// serialized otherwise.
	prefill := r.timing.Prefill(maxPrompt)
	switch cfg.Mode {
	case Unconstrained:
		r.clock += prefill
	case Overlap:
		r.clock += maxDur(prefill, cfg.GrammarInitTime)
	default: // Serial
		r.clock += prefill + cfg.GrammarInitTime
	}
	startedAt := r.clock

	for r.met.DecodeSteps < cfg.MaxSteps && len(r.live) > 0 && r.cfg.Ctx.Err() == nil {
		if err := r.decodeStep(); err != nil {
			return r.met, nil, err
		}
		keep := r.live[:0]
		for _, s := range r.live {
			if !s.done {
				keep = append(keep, s)
			}
		}
		r.live = keep
	}
	// Step-capped or canceled runs return the still-running sequences'
	// partial outputs.
	outs := make([]string, len(reqs))
	var tpotSum time.Duration
	finished := 0
	for i, s := range seqs {
		outs[i] = string(s.output)
		r.met.OutputTokens += s.outTokens
		if s.done && !s.failed && s.outTokens > 0 {
			tpotSum += (s.finishAt - startedAt) / time.Duration(s.outTokens)
			finished++
		}
	}
	if finished > 0 {
		r.met.TPOT = tpotSum / time.Duration(finished)
	} else if r.met.DecodeSteps > 0 {
		// No request finished (step-capped run): fall back to wall time per
		// decode step, which is the same metric for fixed-length outputs.
		r.met.TPOT = r.decodeWall / time.Duration(r.met.DecodeSteps)
	}
	if r.ttftN > 0 {
		r.met.TTFT = r.ttftSum / time.Duration(r.ttftN)
	}
	r.met.Wall = r.clock
	return r.met, outs, r.cfg.Ctx.Err()
}

// failSeq abandons a sequence whose model backend failed: it is marked done
// (its partial output is returned) and counted in ModelErrors. The rest of
// the batch decodes on.
func (r *runner) failSeq(s *seqState) {
	s.done, s.failed = true, true
	s.finishAt = r.clock
	r.met.ModelErrors++
}

// checkToken validates a model-produced token id against the vocabulary and
// the sequence's grammar mask — a malformed backend (an HTTP model server
// returning out-of-range or disallowed ids) fails its own sequence, never
// the run.
func (r *runner) checkToken(s *seqState, id int32) error {
	if id != tokenizer.EosID && (id < 0 || int(id) >= r.cfg.Tok.VocabSize()) {
		return fmt.Errorf("engine: model backend returned out-of-range token %d (vocab %d)", id, r.cfg.Tok.VocabSize())
	}
	if s.session != nil && !s.mask.Get(int(id)) {
		return fmt.Errorf("engine: model backend returned masked-out token %d (%q)", id, r.cfg.Tok.TokenBytes(id))
	}
	return nil
}

// fillMasks fills one mask per constrained live sequence and returns the
// wall time of the whole phase. Overlap mode fills the batch through the
// shared worker pool; Serial mode keeps grammar work on the critical path.
func (r *runner) fillMasks() time.Duration {
	if r.live[0].session == nil { // sessions are all-or-none per run
		return 0
	}
	fill := func(i int) {
		s := r.live[i]
		f0 := time.Now()
		s.session.FillMask(s.mask)
		s.fillDur = time.Since(f0)
	}
	t0 := time.Now()
	if r.cfg.Mode == Overlap && len(r.live) > 1 {
		serve.DefaultPool().Run(len(r.live), fill)
	} else {
		for i := range r.live {
			fill(i)
		}
	}
	fillWall := time.Since(t0)
	for _, s := range r.live {
		r.met.MaskCPU += s.fillDur
	}
	return fillWall
}

// decodeStep runs one batched decode step over the live sequences.
func (r *runner) decodeStep() error {
	gpu := r.timing.DecodeStep(len(r.live))
	fillWall := r.fillMasks()

	// Model phase: the backend picks each sequence's next token under its
	// mask. Untimed on the modelled clock (tokenization/sampling is the
	// model's work, charged through the timing profile).
	for _, s := range r.live {
		var mw []uint64
		if s.session != nil {
			mw = s.mask.Words()
		}
		id, err := s.seq.Next(r.cfg.Ctx, mw)
		if err == nil {
			err = r.checkToken(s, id)
		}
		if err != nil {
			r.failSeq(s)
			continue
		}
		s.next = id
	}

	// Wall-clock for the step (§3.5): overlapped engines hide the batch
	// grammar fill behind the GPU step and synchronize before sampling.
	var stepWall time.Duration
	if r.cfg.Mode == Overlap {
		stepWall = maxDur(gpu, fillWall) + r.timing.SampleStep()
	} else {
		stepWall = gpu + fillWall + r.timing.SampleStep()
	}
	r.clock += stepWall
	r.decodeWall += stepWall
	r.met.GPUTime += gpu
	r.met.DecodeSteps++

	// Sampling + acceptance phase.
	for _, s := range r.live {
		if s.failed {
			continue
		}
		if s.firstTok {
			s.firstTok = false
			r.ttftSum += r.clock
			r.ttftN++
		}
		if s.session != nil {
			if err := s.session.Accept(s.next); err != nil {
				return fmt.Errorf("engine: %w", err)
			}
		}
		s.consume(r.cfg.Tok, s.next)
		if s.done {
			s.finishAt = r.clock
			continue
		}
		if err := r.jumpForward(s); err != nil {
			return err
		}
	}
	return nil
}

// jumpForward runs the jump-forward insertion (Appendix B) for one live
// sequence: the grammar's deterministic continuation is offered to the
// model backend (ObserveForced), and inserted only when the backend absorbs
// it — the teacher-forced backend checks it against its target, a sampler
// backend accepts it for free. Measured CPU is charged to the step (it runs
// on the grammar thread).
func (r *runner) jumpForward(s *seqState) error {
	if !r.cfg.JumpForward {
		return nil
	}
	jf, ok := s.session.(baselines.JumpForwarder)
	if !ok {
		return nil
	}
	t0 := time.Now()
	forced := jf.JumpForward()
	if forced != "" && s.seq.ObserveForced(forced) {
		if err := jf.AcceptString(forced); err != nil {
			return fmt.Errorf("engine: jump-forward: %w", err)
		}
		s.output = append(s.output, forced...)
		n := len(r.cfg.Tok.Encode(forced))
		s.outTokens += n
		r.met.JumpForwardTokens += n
	}
	elapsed := time.Since(t0)
	r.met.MaskCPU += elapsed
	r.clock += elapsed
	r.decodeWall += elapsed
	return nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
