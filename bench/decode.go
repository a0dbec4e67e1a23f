package main

import (
	"fmt"
	"strconv"
	"time"

	"xgrammar"
)

const (
	benchVocab       = 32000
	maxRequestTokens = 1024
	prefixCacheBytes = 32 << 20 // cmd/xgserve's default -prefix-cache-mb
	batchSlots       = 16
	// How many masks of each of the workload's grammar classes a run compares
	// with the full-vocabulary scan, which costs 10-40 ms a mask at 32k
	// tokens: the traced run, whose pass is shorter, carries the full check;
	// the measured run, of which the driver makes over a hundred, a sample.
	oracleStepsTraced   = 200
	oracleStepsMeasured = 24
)

// env is what set-up produces: the tokenizer, the seeded traffic, the
// compiled registry, the serving engine and, per document, the reference
// token ids the decode must be able to emit.
type env struct {
	w     workloadInfo
	info  *xgrammar.TokenizerInfo
	tr    *traffic
	comp  *xgrammar.Compiler
	eng   *xgrammar.Engine
	cgs   []*xgrammar.CompiledGrammar // registry order; compile_cold compiles per request instead
	refs  [][]int32                   // per document
	model *replayBackend              // gateway workloads
	gw    *harness                    // gateway workloads: the listening server under load
	// minRounds is the shortest unprefixed gateway script (decode rounds).
	minRounds int
	// coldStats holds, per grammar, Stats() of compile_cold's latest compile;
	// coldMismatch counts compiles whose Stats() differed from the previous
	// compile of the same grammar.
	coldStats    []xgrammar.CacheStats
	coldMismatch int
}

// newEnv is everything set-up does after the tokenizer exists.
func newEnv(w workloadInfo, seed int64, info *xgrammar.TokenizerInfo) (*env, error) {
	e := &env{w: w, info: info}
	grammars := grammarSet(w.name)
	if w.cold {
		e.comp = xgrammar.NewCompiler(info, xgrammar.WithoutCompileCache())
	} else {
		e.comp = xgrammar.NewCompiler(info)
	}
	// A dedicated fill pool (one worker per CPU, like the shared default)
	// so Close leaves no goroutine behind.
	opts := []xgrammar.EngineOption{xgrammar.WithFillWorkers(0)}
	if w.gateway {
		opts = append(opts, xgrammar.WithPrefixCache(prefixCacheBytes, 0, 0))
	}
	e.eng = xgrammar.NewEngine(e.comp, opts...)
	e.coldStats = make([]xgrammar.CacheStats, len(grammars))
	if !w.cold {
		for _, g := range grammars {
			cg, err := e.comp.CompileSpec(g.spec)
			if err != nil {
				e.close()
				return nil, fmt.Errorf("compile %s: %w", g.name, err)
			}
			e.cgs = append(e.cgs, cg)
		}
	}
	size := func(_ int, doc string) int { return len(info.Encode(doc)) }
	if w.gateway {
		size = e.docRounds
	}
	e.tr = buildTraffic(w, seed, grammars, size)
	if err := e.buildRefs(); err != nil {
		e.close()
		return nil, err
	}
	if w.gateway {
		gw, err := startHarness(e, false)
		if err != nil {
			e.close()
			return nil, err
		}
		e.gw = gw
	}
	return e, nil
}

// docRounds measures a gateway document in decode rounds: the length of the
// script that reproduces it, less the stop token.
func (e *env) docRounds(gi int, doc string) int {
	s := e.eng.OpenSession(e.cgs[gi])
	defer s.Close()
	script, err := recordScript(e.info, s, doc)
	if err != nil {
		return gatewayDocRounds // stop extending; buildRefs reports the error with its document
	}
	return len(script) - 1
}

// buildRefs derives each document's reference token ids: the BPE encoding
// plus the stop token for the single-session walks, a recorded batcher
// script for decode_batch and the gateways.
func (e *env) buildRefs() error {
	scripted := e.w.scripted()
	e.refs = make([][]int32, len(e.tr.docs))
	e.minRounds = 1 << 30
	if e.w.gateway {
		e.model = &replayBackend{scripts: map[string][]int32{}}
	}
	for di := range e.tr.docs {
		doc := &e.tr.docs[di]
		if !scripted {
			e.refs[di] = append(e.info.Encode(doc.text), e.info.EOSTokenID())
			continue
		}
		s, _, err := e.eng.AcquireSession(e.cgs[doc.grammar], doc.prefix)
		if err != nil {
			return fmt.Errorf("%s doc %d: prefix: %w", e.tr.grammars[doc.grammar].name, di, err)
		}
		script, err := recordScript(e.info, s, doc.text[len(doc.prefix):])
		s.Close()
		if err != nil {
			return fmt.Errorf("%s doc %d: %w", e.tr.grammars[doc.grammar].name, di, err)
		}
		e.refs[di] = script
		if e.w.gateway {
			e.model.scripts[strconv.Itoa(di)] = script
			if rounds := len(script) - 1; doc.prefix == "" && rounds < e.minRounds {
				e.minRounds = rounds
			}
		}
	}
	return nil
}

// close releases everything set-up started, in the order a server drains:
// listener and connections, decode loop, fill workers.
func (e *env) close() {
	if e.gw != nil {
		e.gw.stop()
		e.gw = nil
	}
	if e.eng != nil {
		e.eng.Close()
		e.eng = nil
	}
}

// passResult is what one timed pass yields.
type passResult struct {
	wall     time.Duration
	tokens   int64 // Step/Accept calls, or output tokens for the gateways
	requests int
	failed   int
	// Per request, in nanoseconds: start to first token, mean gap between
	// tokens after the first, and start to finish.
	ttft, tpot, total dist
}

func (r *passResult) tokensPerSec() float64 { return float64(r.tokens) / r.wall.Seconds() }

// merge adds o's counts, samples and wall time to r.
func (r *passResult) merge(o *passResult) {
	r.wall += o.wall
	r.tokens += o.tokens
	r.requests += o.requests
	r.failed += o.failed
	r.ttft.merge(&o.ttft)
	r.tpot.merge(&o.tpot)
	r.total.merge(&o.total)
}

// observe records one request's three latencies; n is its token count.
func (r *passResult) observe(t0, t1, t2, t3 time.Time, n int) {
	r.ttft.add(float64(t1.Sub(t0)))
	if n > 1 {
		r.tpot.add(float64(t2.Sub(t1)) / float64(n-1))
	}
	r.total.add(float64(t3.Sub(t0)))
}

// grammarFor returns the compiled grammar a request decodes against;
// compile_cold compiles it now, through a compiler with no cache.
func (e *env) grammarFor(gi int) (*xgrammar.CompiledGrammar, error) {
	if !e.w.cold {
		return e.cgs[gi], nil
	}
	cg, err := e.comp.CompileSpec(e.tr.grammars[gi].spec)
	if err != nil {
		return nil, err
	}
	st := cg.Stats()
	if prev := e.coldStats[gi]; prev.PDANodes != 0 && prev != st {
		e.coldMismatch++
	}
	e.coldStats[gi] = st
	return cg, nil
}

// rollbackDue reports whether decode_cfg retracts after token k of a
// document of n tokens: every rollbackEvery accepted tokens (offset by the
// document's seeded phase), never across the stop token.
func rollbackDue(doc *document, k, n int) bool {
	return (k+1+doc.rollbackPhase)%rollbackEvery == 0 && k+1 >= rollbackDepth && k+1 < n
}

// stepChecked is one reference token: its bit must be set in the current
// mask, then the fused Step (accept, jump-forward probe, fill) runs.
func stepChecked(s *xgrammar.Session, id int32) bool {
	if !maskHas(s.Mask(), id) {
		return false
	}
	_, err := s.Step(id)
	return err == nil
}

// runSingle is the measured pass of decode_schema, decode_cfg and
// compile_cold: one session at a time, closed loop, for d and then (with
// toBoundary) to the end of the current cycle through the request order, so
// every document weighs the same in the percentiles whatever the machine's
// speed. Clocks are read four times per request and never per token.
func (e *env) runSingle(d time.Duration, toBoundary bool) *passResult {
	res := &passResult{}
	withRollback := e.w.rollback
	cycle := len(e.tr.order)
	if e.w.cold {
		cycle = len(e.tr.grammars) // the compile, not the document, is the request
	}
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if t0.Sub(start) >= d && (!toBoundary || i%cycle == 0) {
			break
		}
		di := e.tr.order[i%len(e.tr.order)]
		doc := &e.tr.docs[di]
		toks := e.refs[di]
		res.requests++
		cg, err := e.grammarFor(doc.grammar)
		if err != nil {
			res.failed++
			continue
		}
		s := e.eng.OpenSession(cg)
		var t1 time.Time
		ok := true
		for k, id := range toks {
			if ok = stepChecked(s, id); !ok {
				break
			}
			res.tokens++
			if k == 0 {
				t1 = time.Now()
			}
			if withRollback && rollbackDue(doc, k, len(toks)) {
				if ok = s.Rollback(rollbackDepth) == nil; !ok {
					break
				}
				s.Fill()
				for _, rid := range toks[k+1-rollbackDepth : k+1] {
					ok = ok && stepChecked(s, rid)
					res.tokens++
				}
				if !ok {
					break
				}
			}
		}
		t2 := time.Now()
		ok = ok && s.IsTerminated()
		s.Close()
		t3 := time.Now()
		if !ok {
			res.failed++
			continue
		}
		res.observe(t0, t1, t2, t3, len(toks))
	}
	res.wall = time.Since(start)
	return res
}

// slot is one of decode_batch's 16 lockstep sequences.
type slot struct {
	s      *xgrammar.Session
	script []int32
	pos    int
	cursor int // position in the request order this slot takes next
	t0, t1 time.Time
}

// openSlot starts the slot's next document. Slot i serves order[i],
// order[i+16], ... so the sixteen slots together cycle through every
// document with equal shares per grammar.
func (e *env) openSlot(sl *slot, now time.Time) {
	di := e.tr.order[sl.cursor%len(e.tr.order)]
	sl.cursor += batchSlots
	sl.script, sl.pos = e.refs[di], 0
	sl.t0 = now
	sl.s = e.eng.OpenSession(e.cgs[e.tr.docs[di].grammar])
}

// runBatch is the measured pass of decode_batch: rounds exactly as
// internal/server/batcher.go runs them — one Engine.FillBatchInto over the
// live sessions, then per session Accept and jump-forward insertion;
// finished slots re-open on their next document. Clocks are read twice per
// request and once per 64 rounds.
func (e *env) runBatch(d time.Duration) *passResult {
	res := &passResult{}
	slots := make([]slot, batchSlots)
	sessions := make([]*xgrammar.Session, batchSlots)
	start := time.Now()
	for i := range slots {
		slots[i].cursor = i
		e.openSlot(&slots[i], start)
		sessions[i] = slots[i].s
	}
	stats := e.eng.FillBatchInto(nil, sessions)
	for round := 0; ; round++ {
		if round%64 == 0 && time.Since(start) >= d {
			break
		}
		stats = e.eng.FillBatchInto(stats, sessions)
		for i := range slots {
			sl := &slots[i]
			if sl.pos >= len(sl.script) || !maskHas(sl.s.Mask(), sl.script[sl.pos]) || sl.s.Accept(sl.script[sl.pos]) != nil {
				// Abandon the document; the slot moves on.
				res.requests++
				res.failed++
				sl.s.Close()
				e.openSlot(sl, time.Now())
				sessions[i] = sl.s
				continue
			}
			res.tokens++
			sl.pos++
			if sl.pos == 1 {
				sl.t1 = time.Now()
			}
			if sl.s.IsTerminated() {
				t2 := time.Now()
				sl.s.Close()
				t3 := time.Now()
				res.requests++
				res.observe(sl.t0, sl.t1, t2, t3, len(sl.script))
				e.openSlot(sl, t3)
				sessions[i] = sl.s
				continue
			}
			if jf := sl.s.JumpForward(); jf != "" {
				if sl.s.AcceptString(jf) != nil {
					res.failed++
				}
			}
		}
	}
	res.wall = time.Since(start)
	for i := range slots {
		slots[i].s.Close()
	}
	return res
}
