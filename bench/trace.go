package main

// The traced pass: per-layer metrics measured from the benchmark's side of
// each layer boundary, by timing the calls into the layer's public functions
// and reading the counts the layers already return. Spans stay in memory and
// are written out when the pass ends.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"xgrammar"
)

const (
	// spanCapacity bounds one recorder; a traced decode pass ends when its
	// recorder is full, which is well past the sample counts p99 needs.
	spanCapacity = 1 << 18
	// acquireSamples is how many AcquireSession calls each of the warm and
	// cold acquisition timings takes.
	acquireSamples = 2000
	// overheadRounds is how many times the gateway trace alternates an
	// untraced and a traced pass, each a tenth of the run.
	overheadRounds = 3
)

type traceResult struct {
	attempted, failed int
	metrics           readings
}

// tracePass runs the workload's traced pass for about d, fills in every
// per-layer metric the workload exercises, and dumps the spans under outDir.
func (e *env) tracePass(d time.Duration, outDir string) (*traceResult, error) {
	tr := &traceResult{metrics: readings{}}
	var recs []*recorder
	var err error
	switch {
	case e.w.gateway:
		recs, err = e.traceGateway(d, tr)
	case e.w.batch:
		recs = e.traceBatch(d, tr)
	case e.w.cold:
		recs, err = e.traceCold(d, tr)
	default:
		recs = e.traceSingle(d, tr)
	}
	if err != nil {
		return nil, err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(spansPath(outDir, e.w.name), recs); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

func us(ns float64) float64 { return ns / 1e3 }
func ms(ns float64) float64 { return ns / 1e6 }

// fillCounts accumulates what the mask fills report about themselves.
type fillCounts struct {
	fills, fast, ctxChecked, states int64
}

func (c *fillCounts) add(fastPath bool, ctxChecked, states int) {
	c.fills++
	if fastPath {
		c.fast++
	}
	c.ctxChecked += int64(ctxChecked)
	c.states += int64(states)
}

func (c *fillCounts) report(m readings) {
	if c.fills == 0 {
		return
	}
	n := float64(c.fills)
	m.set("maskcache.fastpath_share", float64(c.fast)/n, int(c.fills))
	m.set("maskcache.ctx_checked_per_fill", float64(c.ctxChecked)/n, int(c.fills))
	m.set("maskcache.states_per_fill", float64(c.states)/n, int(c.fills))
}

// poolReuse sums the grammars' session-pool counters.
func (e *env) poolReuse() (created, reused int64) {
	for _, cg := range e.cgs {
		c, r := cg.SessionPoolStats()
		created, reused = created+c, reused+r
	}
	return created, reused
}

// reportPoolReuse sets serve.pool_reuse_share from the counters' growth
// since created0, reused0.
func (e *env) reportPoolReuse(m readings, created0, reused0 int64) {
	created1, reused1 := e.poolReuse()
	if n := created1 - created0 + reused1 - reused0; n > 0 {
		m.set("serve.pool_reuse_share", float64(reused1-reused0)/float64(n), int(n))
	}
}

// reportDecodeSpans fills the decode-path metrics that come straight from
// span durations.
func reportDecodeSpans(m readings, k *[numSpanKinds]dist) {
	set := func(name string, kind spanKind, p float64) {
		if k[kind].n() > 0 {
			m.set(name, us(k[kind].q(p)), k[kind].n())
		}
	}
	set("maskcache.fill_us_p50", spFill, 0.5)
	set("maskcache.fill_us_p99", spFill, 0.99)
	set("matcher.accept_us_p50", spAccept, 0.5)
	set("matcher.accept_us_p99", spAccept, 0.99)
	set("matcher.jump_forward_us_p50", spJumpForward, 0.5)
	set("matcher.rollback_us_p50", spRollback, 0.5)
	set("serve.open_us_p50", spOpen, 0.5)
	set("serve.fill_batch_us_p50", spFillBatch, 0.5)
}

// traceSingle traces decode_schema and decode_cfg in two halves. The first
// replaces the fused Session.Step by its parts — Accept, JumpForward, Fill —
// each in its own span under a decode.step parent, with OpenSession,
// Rollback and Close spans beside them. The second times the fused Step
// itself, one span per token; the gap between the fused step and the sum of
// its parts is decode.unaccounted_pct.
func (e *env) traceSingle(d time.Duration, tr *traceResult) []*recorder {
	epoch := time.Now()
	split, fused := newRecorder(epoch, spanCapacity), newRecorder(epoch, spanCapacity)
	withRollback := e.w.rollback
	var fc fillCounts
	// Jump-forward coverage: pos is the byte offset after the last accepted
	// token, covered the end of the furthest forced continuation probed so
	// far. The fused step only probes, so successive probes overlap; bytes
	// count once.
	var jfBytes, docBytes int64
	var pos, covered int
	created0, reused0 := e.poolReuse()

	splitStep := func(s *xgrammar.Session, req int32, id int32) bool {
		if !maskHas(s.Mask(), id) {
			return false
		}
		st := split.begin(spStep, req, req)
		a := split.begin(spAccept, st, req)
		err := s.Accept(id)
		split.end(a)
		if err == nil && !s.IsTerminated() {
			j := split.begin(spJumpForward, st, req)
			jf := s.JumpForward()
			split.end(j)
			f := split.begin(spFill, st, req)
			fs := s.Fill()
			split.end(f)
			fc.add(fs.FastPath, fs.CtxChecked, fs.States)
			pos += len(e.info.TokenBytes(id))
			if end := pos + len(jf); end > covered {
				jfBytes += int64(end - max(pos, covered))
				covered = end
			}
		}
		split.end(st)
		return err == nil
	}
	fusedStep := func(s *xgrammar.Session, req int32, id int32) bool {
		if !maskHas(s.Mask(), id) {
			return false
		}
		f := fused.begin(spFusedStep, -1, req)
		_, err := s.Step(id)
		fused.end(f)
		return err == nil
	}
	// walk decodes documents with step until half of d has passed or rec
	// could not hold another document's spans.
	walk := func(rec *recorder, spans bool, step func(*xgrammar.Session, int32, int32) bool) {
		start := time.Now()
		for i := 0; time.Since(start) < d/2; i++ {
			di := e.tr.order[i%len(e.tr.order)]
			doc, toks := &e.tr.docs[di], e.refs[di]
			if !rec.room(8 * (len(toks) + 8)) {
				break
			}
			tr.attempted++
			var req, o int32 = -1, -1
			if spans {
				req = rec.begin(spRequest, -1, int32(di))
				o = rec.begin(spOpen, req, req)
			}
			s := e.eng.OpenSession(e.cgs[doc.grammar])
			if spans {
				rec.end(o)
			}
			pos, covered = 0, 0
			ok := true
			for k, id := range toks {
				if ok = step(s, req, id); !ok {
					break
				}
				if withRollback && rollbackDue(doc, k, len(toks)) {
					var r int32
					if spans {
						r = rec.begin(spRollback, req, req)
					}
					ok = s.Rollback(rollbackDepth) == nil
					if spans {
						rec.end(r)
					}
					s.Fill()
					for _, rid := range toks[k+1-rollbackDepth : k+1] {
						pos -= len(e.info.TokenBytes(rid))
					}
					for _, rid := range toks[k+1-rollbackDepth : k+1] {
						ok = ok && step(s, req, rid)
					}
					if !ok {
						break
					}
				}
			}
			ok = ok && s.IsTerminated()
			if spans {
				c := rec.begin(spClose, req, req)
				s.Close()
				rec.end(c)
				rec.end(req)
				docBytes += int64(len(doc.text))
			} else {
				s.Close()
			}
			if !ok {
				tr.failed++
			}
		}
	}
	walk(split, true, splitStep)
	walk(fused, false, fusedStep)

	m := tr.metrics
	k := byKind(split.spans)
	reportDecodeSpans(m, &k)
	fc.report(m)
	if docBytes > 0 {
		m.set("matcher.jump_forward_bytes_share", float64(jfBytes)/float64(docBytes), int(docBytes))
	}
	e.reportPoolReuse(m, created0, reused0)
	fk := byKind(fused.spans)
	if n := fk[spFusedStep].n(); n > 0 && k[spStep].n() > 0 {
		m.set("step_us_p99", us(fk[spFusedStep].q(0.99)), n)
		parts := (k[spAccept].mean()*float64(k[spAccept].n()) + k[spJumpForward].mean()*float64(k[spJumpForward].n()) +
			k[spFill].mean()*float64(k[spFill].n())) / float64(k[spStep].n())
		fusedMean := fk[spFusedStep].mean()
		m.set("decode.unaccounted_pct", 100*(fusedMean-parts)/fusedMean, n)
	}
	return []*recorder{split, fused}
}

// traceBatch traces decode_batch: every round is a span with the batch fill,
// the per-session accepts and jump-forward insertions and any re-opens under
// it. Rounds alternate between Engine.FillBatchInto and a plain loop calling
// Fill on the same sixteen sessions, so serve.fill_batch_overhead_pct
// compares the worker-pool fan-out with the serial fills it replaces.
func (e *env) traceBatch(d time.Duration, tr *traceResult) []*recorder {
	rec := newRecorder(time.Now(), spanCapacity)
	slots := make([]slot, batchSlots)
	sessions := make([]*xgrammar.Session, batchSlots)
	var fc fillCounts
	var batchWall, serialWall, roundWall dist
	var jfBytes, scriptBytes int64
	created0, reused0 := e.poolReuse()
	start := time.Now()
	for i := range slots {
		slots[i].cursor = i
		e.openSlot(&slots[i], start)
		sessions[i] = slots[i].s
	}
	stats := e.eng.FillBatchInto(nil, sessions)
	for round := 0; time.Since(start) < d && rec.room(4*batchSlots+4); round++ {
		rd := rec.begin(spRound, -1, int32(round))
		if round%2 == 0 {
			fb := rec.begin(spFillBatch, rd, int32(round))
			stats = e.eng.FillBatchInto(stats, sessions)
			rec.end(fb)
			batchWall.add(float64(rec.spans[fb].end - rec.spans[fb].start))
			for _, st := range stats {
				fc.add(st.FastPath, st.CtxChecked, st.States)
			}
		} else {
			wall := int64(0)
			for _, s := range sessions {
				f := rec.begin(spFill, rd, int32(round))
				st := s.Fill()
				rec.end(f)
				wall += rec.spans[f].end - rec.spans[f].start
				fc.add(st.FastPath, st.CtxChecked, st.States)
			}
			serialWall.add(float64(wall))
		}
		for i := range slots {
			sl := &slots[i]
			ok := sl.pos < len(sl.script) && maskHas(sl.s.Mask(), sl.script[sl.pos])
			if ok {
				a := rec.begin(spAccept, rd, int32(round))
				ok = sl.s.Accept(sl.script[sl.pos]) == nil
				rec.end(a)
				scriptBytes += int64(len(e.info.TokenBytes(sl.script[sl.pos])))
				sl.pos++
			}
			if ok && !sl.s.IsTerminated() {
				j := rec.begin(spJumpForward, rd, int32(round))
				if jf := sl.s.JumpForward(); jf != "" {
					ok = sl.s.AcceptString(jf) == nil
					jfBytes += int64(len(jf))
				}
				rec.end(j)
				if ok {
					continue
				}
			}
			tr.attempted++
			if !ok {
				tr.failed++
			}
			sl.s.Close()
			o := rec.begin(spOpen, rd, int32(round))
			e.openSlot(sl, time.Time{})
			rec.end(o)
			sessions[i] = sl.s
		}
		rec.end(rd)
		if round%2 == 0 {
			roundWall.add(float64(rec.spans[rd].end - rec.spans[rd].start))
		}
	}
	for i := range slots {
		slots[i].s.Close()
	}
	m := tr.metrics
	k := byKind(rec.spans)
	reportDecodeSpans(m, &k)
	fc.report(m)
	if n := jfBytes + scriptBytes; n > 0 {
		m.set("matcher.jump_forward_bytes_share", float64(jfBytes)/float64(n), int(n))
	}
	if batchWall.n() > 0 && serialWall.n() > 0 {
		m.set("serve.fill_batch_overhead_pct", 100*(batchWall.mean()-serialWall.mean())/serialWall.mean(), batchWall.n())
		m.set("round_us_p99", us(roundWall.q(0.99)), roundWall.n())
	}
	e.reportPoolReuse(m, created0, reused0)
	return []*recorder{rec}
}

// traceCold traces compile_cold: each grammar of the set is compiled through
// the public Compiler (one xgrammar.compile span), then again layer by layer
// — front end, pda.Compile, maskcache.Build — and serialised and loaded
// back. Layer metrics are means per grammar; xgrammar.compile_unaccounted_ms
// is the public compile's mean wall minus the layers' mean sum.
func (e *env) traceCold(d time.Duration, tr *traceResult) ([]*recorder, error) {
	rec := newRecorder(time.Now(), spanCapacity)
	type acc struct {
		sum float64
		n   int
	}
	sums := map[string]*acc{}
	add := func(name string, v float64) {
		a := sums[name]
		if a == nil {
			a = &acc{}
			sums[name] = a
		}
		a.sum += v
		a.n++
	}
	var compileWall dist
	start := time.Now()
	// Whole cycles through the set only, so the per-grammar means weigh every
	// grammar equally and the exact counts do not depend on the machine's speed.
	for i := 0; i%len(e.tr.grammars) != 0 || time.Since(start) < d; i++ {
		gi := i % len(e.tr.grammars)
		g := &e.tr.grammars[gi]
		tr.attempted++
		c := rec.begin(spCompile, -1, int32(gi))
		cg, err := e.grammarFor(gi)
		rec.end(c)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", g.name, err)
		}
		wall := float64(rec.spans[c].end - rec.spans[c].start)
		compileWall.add(wall)

		cl, err := compileByLayer(e.info, g.spec)
		if err != nil {
			return nil, fmt.Errorf("compile %s by layer: %w", g.name, err)
		}
		if cl.frontLayer != "" {
			add(cl.frontLayer, ms(float64(cl.front)))
		}
		add("pda.compile_ms", ms(float64(cl.pda)))
		add("maskcache.build_ms", ms(float64(cl.build)))
		add("xgrammar.compile_unaccounted_ms", ms(wall-float64(cl.front+cl.pda+cl.build)))
		add("pda.nodes", float64(cl.nodes))
		add("pda.edges", float64(cl.edges))
		cs := cl.cache
		add("maskcache.ctx_dependent_tokens", float64(cs.CtxDependent))
		add("maskcache.ctx_independent_tokens", float64(cs.CIAccepted+cs.CIRejected))
		add("maskcache.prefix_chars_stepped", float64(cs.CharsStepped))
		add("maskcache.storage_bytes", float64(cs.StorageBytes))
		add("maskcache.canonical_bytes", float64(cs.CanonicalBytes))
		// KindCounts is indexed AcceptList, RejectList, WordMask.
		add("maskcache.accept_list_nodes", float64(cs.KindCounts[0]))
		add("maskcache.reject_list_nodes", float64(cs.KindCounts[1]))
		add("maskcache.word_mask_nodes", float64(cs.KindCounts[2]))
		// The layer-by-layer build must describe the same artefact.
		if st := cg.Stats(); st.PDANodes != cl.nodes || st.AdaptiveBytes != cs.StorageBytes {
			tr.failed++
		}

		var blob bytes.Buffer
		t0 := time.Now()
		if err := cg.Serialize(&blob); err != nil {
			return nil, fmt.Errorf("serialize %s: %w", g.name, err)
		}
		t1 := time.Now()
		size := blob.Len()
		loaded, err := e.comp.LoadCompiledGrammar(&blob)
		t2 := time.Now()
		if err != nil || loaded.Stats() != cg.Stats() {
			tr.failed++
		}
		add("serialize.save_ms", ms(float64(t1.Sub(t0))))
		add("serialize.load_ms", ms(float64(t2.Sub(t1))))
		add("serialize.blob_kib", float64(size)/1024)
	}
	for name, a := range sums {
		tr.metrics.set(name, a.sum/float64(a.n), a.n)
	}
	tr.metrics.set("compile_ms_p50", ms(compileWall.q(0.5)), compileWall.n())
	tr.metrics.set("compile_ms_p90", ms(compileWall.q(0.9)), compileWall.n())
	return []*recorder{rec}, nil
}

// traceGateway traces a gateway workload in four parts. First, HTTP passes
// that alternate between the untraced gateway and a second one whose only
// difference is obs.New(obs.Config{}), the traced ones between before/after
// scrapes of both /metrics formats: the medians of the two sides' token
// rates give the tracing overhead, and alternating keeps a slow minute of
// the machine from landing on one side. Then a pass with the benchmark's own
// instrumentation on — client-side spans, gaps between events, the replay
// backend timing its Next calls; an in-process pass calling the traced
// gateway's ServeHTTP with a recorder; and direct timings of
// Engine.AcquireSession with and without a cached prefix.
func (e *env) traceGateway(d time.Duration, tr *traceResult) ([]*recorder, error) {
	m := tr.metrics
	traced, err := startHarness(e, true)
	if err != nil {
		return nil, err
	}
	defer traced.stop()
	e.gw.runGateway(min(warmup, d), nil)
	traced.runGateway(min(warmup, d), nil)
	before, err := traced.scrapeBoth()
	if err != nil {
		return nil, err
	}
	plain, res := &passResult{}, &passResult{}
	var plainRates, tracedRates []float64
	for i := 0; i < overheadRounds; i++ {
		p, _ := e.gw.runGateway(d/10, nil)
		t, _ := traced.runGateway(d/10, nil)
		plainRates, tracedRates = append(plainRates, p.tokensPerSec()), append(tracedRates, t.tokensPerSec())
		plain.merge(p)
		res.merge(t)
	}
	after, err := traced.scrapeBoth()
	if err != nil {
		return nil, err
	}
	// The untraced gateway is done; only the traced one listens from here on.
	e.gw.stop()
	e.gw = nil
	sort.Float64s(plainRates)
	sort.Float64s(tracedRates)
	plainRate, tracedRate := percentile(plainRates, 0.5), percentile(tracedRates, 0.5)
	m.set("obs.tracing_overhead_pct", 100*(plainRate-tracedRate)/plainRate, min(plain.requests, res.requests))

	epoch := time.Now()
	recs := make([]*recorder, clientCount())
	for i := range recs {
		recs[i] = newRecorder(epoch, spanCapacity/4)
	}
	e.model.timed = true
	spanned, itl := traced.runGateway(d*2/10, recs)
	e.model.timed = false
	for _, r := range []*passResult{plain, res, spanned} {
		tr.attempted += r.requests
		tr.failed += r.failed
	}

	// Stage budget: per-request means from the stage histograms.
	requests := after.stages["total"].count - before.stages["total"].count
	if requests > 0 {
		total := 1e3 * (after.stages["total"].seconds - before.stages["total"].seconds) / requests
		accounted := 0.0
		for _, stage := range []string{"admission", "resolve", "prefix_lookup", "queue", "accept", "jump_forward", "fill", "backend", "stream"} {
			v := 1e3 * (after.stages[stage].seconds - before.stages[stage].seconds) / requests
			m.set("obs.stage_ms."+stage, v, int(after.stages[stage].count-before.stages[stage].count))
			accounted += v
		}
		m.set("obs.unaccounted_ms", total-accounted, int(requests))
	}
	if rounds := after.stages["depth"].count - before.stages["depth"].count; rounds > 0 {
		m.set("server.batch_mean", (after.stages["depth"].seconds-before.stages["depth"].seconds)/rounds, int(rounds))
	}
	a, b := after.json, before.json
	m.set("server.rounds", float64(a.DecodeRounds-b.DecodeRounds), 1)
	m.set("server.fill_p50_us", a.FillP50US, int(a.DecodeRounds-b.DecodeRounds))
	m.set("server.fill_p99_us", a.FillP99US, int(a.DecodeRounds-b.DecodeRounds))
	m.set("server.rejected_429", float64(a.Rejected-b.Rejected), 1)
	if n := a.PrefixCache.Hits - b.PrefixCache.Hits + a.PrefixCache.Misses - b.PrefixCache.Misses; n > 0 {
		m.set("prefixcache.hit_share", float64(a.PrefixCache.Hits-b.PrefixCache.Hits)/float64(n), int(n))
	}
	if n := a.CompileCache.Hits - b.CompileCache.Hits + a.CompileCache.Misses - b.CompileCache.Misses; n > 0 {
		m.set("gramcache.hit_share", float64(a.CompileCache.Hits-b.CompileCache.Hits)/float64(n), int(n))
	}
	if next := e.model.takeNext(); next.n() > 0 {
		m.set("backend.next_us_p50", us(next.q(0.5)), next.n())
	}
	m.set("itl_ms_p99", ms(itl.q(0.99)), itl.n())

	handler, failed := traced.runHandler(d * 15 / 100)
	tr.attempted += handler.n()
	tr.failed += failed
	m.set("server.handler_ms_p50", ms(handler.q(0.5)), handler.n())
	m.set("transport.loopback_ms_p50", ms(res.total.q(0.5)-handler.q(0.5)), res.total.n())

	if err := e.traceAcquire(tr); err != nil {
		return nil, err
	}
	return recs, nil
}

// traceAcquire times Engine.AcquireSession on the prefixed documents: warm
// against the serving engine, whose prefix cache the passes above filled,
// and cold against an engine without a prefix cache, which replays every
// forced prefix through the matcher.
func (e *env) traceAcquire(tr *traceResult) error {
	coldEng := xgrammar.NewEngine(e.comp, xgrammar.WithFillWorkers(0))
	defer coldEng.Close()
	var prefixed []*document
	for di := range e.tr.docs {
		if e.tr.docs[di].prefix != "" {
			prefixed = append(prefixed, &e.tr.docs[di])
		}
	}
	for _, side := range []struct {
		name string
		eng  *xgrammar.Engine
	}{{"serve.acquire_warm_us_p50", e.eng}, {"serve.acquire_cold_us_p50", coldEng}} {
		var d dist
		for i := 0; i < acquireSamples; i++ {
			doc := prefixed[i%len(prefixed)]
			t0 := time.Now()
			s, _, err := side.eng.AcquireSession(e.cgs[doc.grammar], doc.prefix)
			d.add(float64(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("acquire: %w", err)
			}
			s.Close()
		}
		tr.metrics.set(side.name, us(d.q(0.5)), d.n())
	}
	return nil
}

// scraped is one reading of both /metrics formats.
type scraped struct {
	json   gatewayMetrics
	stages map[string]stageTotals
}

// scrapeBoth reads the gateway's existing JSON and Prometheus /metrics.
func (h *harness) scrapeBoth() (*scraped, error) {
	var s scraped
	body, err := h.scrape("/metrics")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &s.json); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	if body, err = h.scrape("/metrics?format=prometheus"); err != nil {
		return nil, err
	}
	if s.stages, err = parseStageTotals(string(body)); err != nil {
		return nil, fmt.Errorf("/metrics?format=prometheus: %w", err)
	}
	return &s, nil
}
