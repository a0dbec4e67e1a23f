package xgrammar

// Benchmarks regenerating each table and figure of the paper (§4). Per-step
// benches measure one mask-generation step; end-to-end benches run one
// engine batch. `go test -bench=. -benchmem` prints them all; the cmd/xgbench
// tool prints the same experiments as paper-style tables.

import (
	"sync"
	"testing"

	"xgrammar/internal/backend/simllm"
	"xgrammar/internal/baselines"
	"xgrammar/internal/bitset"
	"xgrammar/internal/builtin"
	"xgrammar/internal/engine"
	"xgrammar/internal/jsonschema"
	"xgrammar/internal/llmsim"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/matcher"
	"xgrammar/internal/pda"
	"xgrammar/internal/tokenizer"
	"xgrammar/internal/workload"
)

const benchVocab = 8000

var (
	benchOnce sync.Once
	benchTok  *tokenizer.Tokenizer
	benchEnv  struct {
		jsonOpt    *pda.PDA
		jsonPlain  *pda.PDA
		jsonMerged *pda.PDA
		cacheFull  *maskcache.Cache
		cacheNoCtx *maskcache.Cache
		cacheMerge *maskcache.Cache
		schema     *experimentsSchema
		jsonDocs   []string
	}
)

type experimentsSchema struct {
	task workload.SchemaTask
	pda  *pda.PDA
	xg   *baselines.XGBackend
	fsm  *baselines.RegexFSM
	cw   *baselines.CharWalk
	lcp  *baselines.LlamaCpp
}

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchTok = tokenizer.BuildDefault(benchVocab)
		var err error
		benchEnv.jsonOpt, err = pda.Compile(builtin.JSON(), pda.AllOptimizations)
		if err != nil {
			panic(err)
		}
		benchEnv.jsonPlain, _ = pda.Compile(builtin.JSON(), pda.Options{})
		benchEnv.jsonMerged, _ = pda.Compile(builtin.JSON(), pda.Options{NodeMerging: true})
		benchEnv.cacheFull = maskcache.Build(benchEnv.jsonOpt, benchTok, maskcache.Options{ContextExpansion: true})
		benchEnv.cacheNoCtx = maskcache.Build(benchEnv.jsonOpt, benchTok, maskcache.Options{})
		benchEnv.cacheMerge = maskcache.Build(benchEnv.jsonMerged, benchTok, maskcache.Options{})
		benchEnv.jsonDocs = workload.JSONDocs(8, 31)

		task := workload.SchemaTasks(1, 2025)[0]
		g, err := jsonschema.Compile(task.Schema, jsonschema.Options{})
		if err != nil {
			panic(err)
		}
		p, err := pda.Compile(g, pda.AllOptimizations)
		if err != nil {
			panic(err)
		}
		cache := maskcache.Build(p, benchTok, maskcache.Options{ContextExpansion: true})
		es := &experimentsSchema{task: task, pda: p}
		es.xg = baselines.NewXGBackend(p, cache, benchTok, "xgrammar")
		es.lcp = baselines.NewLlamaCpp(p, benchTok)
		if fsm, err := baselines.NewRegexFSM(g, benchTok); err == nil {
			fsm.PrecomputeAll()
			es.fsm = fsm
		}
		if cw, err := baselines.NewCharWalk(g, benchTok); err == nil {
			es.cw = cw
		}
		benchEnv.schema = es
	})
}

// stepBench measures per-step mask generation while replaying docs.
func stepBench(b *testing.B, backend baselines.Backend, docs []string) {
	b.Helper()
	mask := bitset.New(benchTok.VocabSize())
	var sess baselines.Session
	var ids []int32
	doc, pos := 0, 0
	reset := func() {
		sess = backend.NewSession()
		ids = benchTok.Encode(docs[doc%len(docs)])
		doc++
		pos = 0
	}
	reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.FillMask(mask)
		b.StopTimer()
		if pos >= len(ids) {
			reset()
		} else {
			if err := sess.Accept(ids[pos]); err != nil {
				b.Fatal(err)
			}
			pos++
		}
		b.StartTimer()
	}
}

// --- Figure 9: per-token mask generation latency -------------------------

func BenchmarkFig9SchemaXGrammar(b *testing.B) {
	benchSetup(b)
	stepBench(b, benchEnv.schema.xg, []string{benchEnv.schema.task.Instance})
}

func BenchmarkFig9SchemaOutlinesFSM(b *testing.B) {
	benchSetup(b)
	if benchEnv.schema.fsm == nil {
		b.Skip("schema not regex-representable")
	}
	stepBench(b, benchEnv.schema.fsm, []string{benchEnv.schema.task.Instance})
}

func BenchmarkFig9SchemaLMFormatEnforcer(b *testing.B) {
	benchSetup(b)
	if benchEnv.schema.cw == nil {
		b.Skip("schema not regex-representable")
	}
	stepBench(b, benchEnv.schema.cw, []string{benchEnv.schema.task.Instance})
}

func BenchmarkFig9SchemaLlamaCpp(b *testing.B) {
	benchSetup(b)
	stepBench(b, benchEnv.schema.lcp, []string{benchEnv.schema.task.Instance})
}

func BenchmarkFig9CFGJSONXGrammar(b *testing.B) {
	benchSetup(b)
	stepBench(b, baselines.NewXGBackend(benchEnv.jsonOpt, benchEnv.cacheFull, benchTok, "xgrammar"), benchEnv.jsonDocs)
}

func BenchmarkFig9CFGJSONOutlines(b *testing.B) {
	benchSetup(b)
	stepBench(b, baselines.NewOutlinesCFG(benchEnv.jsonOpt, benchTok), benchEnv.jsonDocs)
}

func BenchmarkFig9CFGJSONLlamaCpp(b *testing.B) {
	benchSetup(b)
	stepBench(b, baselines.NewLlamaCpp(benchEnv.jsonPlain, benchTok), benchEnv.jsonDocs)
}

func BenchmarkFig9CFGXMLXGrammar(b *testing.B) {
	benchSetup(b)
	p, _ := pda.Compile(builtin.XML(), pda.AllOptimizations)
	c := maskcache.Build(p, benchTok, maskcache.Options{ContextExpansion: true})
	stepBench(b, baselines.NewXGBackend(p, c, benchTok, "xgrammar"), workload.XMLDocs(6, 8))
}

func BenchmarkFig9CFGPythonXGrammar(b *testing.B) {
	benchSetup(b)
	p, _ := pda.Compile(builtin.PythonDSL(), pda.AllOptimizations)
	c := maskcache.Build(p, benchTok, maskcache.Options{ContextExpansion: true})
	stepBench(b, baselines.NewXGBackend(p, c, benchTok, "xgrammar"), workload.PythonPrograms(6, 9))
}

// --- Table 3: ablation ----------------------------------------------------

func BenchmarkTab3PDABaseline(b *testing.B) {
	benchSetup(b)
	stepBench(b, baselines.NewLlamaCpp(benchEnv.jsonPlain, benchTok), benchEnv.jsonDocs)
}

func BenchmarkTab3NodeMerging(b *testing.B) {
	benchSetup(b)
	stepBench(b, baselines.NewLlamaCpp(benchEnv.jsonMerged, benchTok), benchEnv.jsonDocs)
}

func BenchmarkTab3AdaptiveCache(b *testing.B) {
	benchSetup(b)
	stepBench(b, baselines.NewXGBackend(benchEnv.jsonMerged, benchEnv.cacheMerge, benchTok, "xgrammar"), benchEnv.jsonDocs)
}

func BenchmarkTab3RuleInlining(b *testing.B) {
	benchSetup(b)
	stepBench(b, baselines.NewXGBackend(benchEnv.jsonOpt, benchEnv.cacheNoCtx, benchTok, "xgrammar"), benchEnv.jsonDocs)
}

func BenchmarkTab3ContextExpansion(b *testing.B) {
	benchSetup(b)
	stepBench(b, baselines.NewXGBackend(benchEnv.jsonOpt, benchEnv.cacheFull, benchTok, "xgrammar"), benchEnv.jsonDocs)
}

// --- Figure 10 / Tables 1-2: end-to-end engine ---------------------------

func e2eBench(b *testing.B, mode engine.Mode, backend baselines.Backend, batch int, jf bool) {
	b.Helper()
	targets := make([]string, batch)
	for i := range targets {
		targets[i] = benchEnv.jsonDocs[i%len(benchEnv.jsonDocs)]
	}
	cfg := engine.Config{
		Model:       simllm.NewTeacher(benchTok, llmsim.Profile{}, simllm.TeacherOptions{}), // zero GPU time: measure grammar side
		Mode:        mode,
		Grammar:     backend,
		Tok:         benchTok,
		JumpForward: jf,
		MaxSteps:    4000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met, _, err := engine.Run(cfg, llmsim.NewRequests(targets, 139))
		if err != nil {
			b.Fatal(err)
		}
		if met.OutputTokens == 0 {
			b.Fatal("no output tokens")
		}
	}
}

func BenchmarkFig10XGrammarBatch1(b *testing.B) {
	benchSetup(b)
	e2eBench(b, engine.Overlap, baselines.NewXGBackend(benchEnv.jsonOpt, benchEnv.cacheFull, benchTok, "xgrammar"), 1, false)
}

func BenchmarkFig10XGrammarBatch16(b *testing.B) {
	benchSetup(b)
	e2eBench(b, engine.Overlap, baselines.NewXGBackend(benchEnv.jsonOpt, benchEnv.cacheFull, benchTok, "xgrammar"), 16, false)
}

func BenchmarkFig10OutlinesCFGBatch1(b *testing.B) {
	benchSetup(b)
	e2eBench(b, engine.Serial, baselines.NewOutlinesCFG(benchEnv.jsonOpt, benchTok), 1, false)
}

func BenchmarkTab1OutlinesFSMSchema(b *testing.B) {
	benchSetup(b)
	if benchEnv.schema.fsm == nil {
		b.Skip("schema not regex-representable")
	}
	sTargets := []string{benchEnv.schema.task.Instance}
	cfg := engine.Config{Model: simllm.NewTeacher(benchTok, llmsim.Profile{}, simllm.TeacherOptions{}), Mode: engine.Serial, Grammar: benchEnv.schema.fsm, Tok: benchTok, MaxSteps: 4000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := engine.Run(cfg, llmsim.NewRequests(sTargets, 139)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTab2ConstrainedOverheadCPU(b *testing.B) {
	benchSetup(b)
	e2eBench(b, engine.Overlap, baselines.NewXGBackend(benchEnv.jsonOpt, benchEnv.cacheFull, benchTok, "xgrammar"), 1, false)
}

// --- Figure 11: jump-forward ----------------------------------------------

func BenchmarkFig11JumpForward(b *testing.B) {
	benchSetup(b)
	cfg := engine.Config{
		Model:       simllm.NewTeacher(benchTok, llmsim.Profile{}, simllm.TeacherOptions{}),
		Mode:        engine.Overlap,
		Grammar:     benchEnv.schema.xg,
		Tok:         benchTok,
		JumpForward: true,
		MaxSteps:    4000,
	}
	reqs := llmsim.NewRequests([]string{benchEnv.schema.task.Instance}, 139)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met, _, err := engine.Run(cfg, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if met.JumpForwardTokens == 0 {
			b.Fatal("no jump-forward tokens")
		}
	}
}

// --- Figure 12 analogue: full guided generation on the public API --------

func BenchmarkFig12GuidedDecodeLoop(b *testing.B) {
	benchSetup(b)
	info := DefaultTokenizer(benchVocab)
	cg, err := NewCompiler(info).CompileBuiltinJSON()
	if err != nil {
		b.Fatal(err)
	}
	doc := benchEnv.jsonDocs[0]
	mask := make([]uint64, cg.MaskWords())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMatcher(cg)
		emitted := 0
		for !m.IsTerminated() {
			m.FillNextTokenBitmask(mask)
			var next int32
			if emitted >= len(doc) {
				next = info.EOSTokenID()
			} else {
				next = info.Encode(doc[emitted:])[0]
			}
			if err := m.AcceptToken(next); err != nil {
				b.Fatal(err)
			}
			if next != info.EOSTokenID() {
				emitted += len(info.TokenBytes(next))
			}
		}
	}
}

// --- §3 statistics: preprocessing -----------------------------------------

func BenchmarkStatsCacheBuildJSON(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		maskcache.Build(benchEnv.jsonOpt, benchTok, maskcache.Options{ContextExpansion: true})
	}
}

func BenchmarkStatsCacheBuildNoPrefixSharingComparator(b *testing.B) {
	// Comparator for the §3.3 claim: scanning the vocabulary from the root
	// node without the persistent-stack prefix sharing.
	benchSetup(b)
	exec := matcher.NewExec(benchEnv.jsonOpt)
	m := matcher.New(exec, 0)
	mask := bitset.New(benchTok.VocabSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maskcache.FullScanMask(exec, benchTok, m.States(), mask, m.CanTerminate(), false)
	}
}

func BenchmarkStatsCacheBuildPrefixSharedComparator(b *testing.B) {
	benchSetup(b)
	exec := matcher.NewExec(benchEnv.jsonOpt)
	m := matcher.New(exec, 0)
	mask := bitset.New(benchTok.VocabSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maskcache.FullScanMask(exec, benchTok, m.States(), mask, m.CanTerminate(), true)
	}
}

// --- Concurrent compilation subsystem -------------------------------------

// BenchmarkMaskCacheBuild compares the serial §3.1–§3.3 preprocessing scan
// against the worker-pool build (output is byte-identical; see
// TestParallelBuildMatchesSerial).
func BenchmarkMaskCacheBuild(b *testing.B) {
	benchSetup(b)
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				maskcache.Build(benchEnv.jsonOpt, benchTok, maskcache.Options{ContextExpansion: true, Workers: cfg.workers})
			}
		})
	}
}

// BenchmarkCompileGrammarCacheHit measures a CompileGrammar call served from
// the compiled-grammar LRU (the steady state of a server that sees the same
// few grammars), against the cold compile underneath it.
func BenchmarkCompileGrammarCacheHit(b *testing.B) {
	benchSetup(b)
	info := DefaultTokenizer(benchVocab)
	c := NewCompiler(info)
	if _, err := c.CompileBuiltinJSON(); err != nil {
		b.Fatal(err)
	}
	before := c.CompileCacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompileBuiltinJSON(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := c.CompileCacheStats()
	if after.Builds != before.Builds {
		b.Fatalf("cache-hit bench rebuilt the grammar: %+v", after)
	}
	if after.Hits-before.Hits != int64(b.N) {
		b.Fatalf("expected %d hits, got %d", b.N, after.Hits-before.Hits)
	}
}

func BenchmarkCompileGrammarCold(b *testing.B) {
	benchSetup(b)
	info := DefaultTokenizer(benchVocab)
	c := NewCompiler(info, WithoutCompileCache())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompileBuiltinJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving runtime: pooled sessions, fused step --------------------------

// BenchmarkEngineSessionStep measures the public serving API's fused
// per-token step (accept + jump-forward probe + mask fill) on a pooled
// session in steady state; the runtime's guarantee is 0 allocs/op.
func BenchmarkEngineSessionStep(b *testing.B) {
	benchSetup(b)
	info := DefaultTokenizer(benchVocab)
	compiler := NewCompiler(info)
	cg, err := compiler.CompileBuiltinJSON()
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(compiler)
	var ids []int32
	for _, doc := range benchEnv.jsonDocs {
		ids = append(ids, info.Encode(doc)...)
		ids = append(ids, info.Encode(", ")...)
	}
	// Wrap the docs in one long array so the stream never terminates.
	ids = append(info.Encode("["), ids...)

	s := eng.OpenSession(cg)
	for _, id := range ids { // settle capacities
		if _, err := s.Step(id); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	s = eng.OpenSession(cg)
	i := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i == len(ids) {
			b.StopTimer()
			s.Close()
			s = eng.OpenSession(cg)
			i = 0
			b.StartTimer()
		}
		if _, err := s.Step(ids[i]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
