package xgrammar

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// matcherMask fills a fresh slice from a Matcher.
func matcherMask(t *testing.T, m *Matcher, words int) []uint64 {
	t.Helper()
	mask := make([]uint64, words)
	if _, err := m.FillNextTokenBitmask(mask); err != nil {
		t.Fatal(err)
	}
	return mask
}

func masksEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEngineSessionReuseMatchesFreshMatcher checks pooled reuse: a session
// that was released and re-acquired must behave identically to a fresh
// unpooled session (NewMatcher) — same masks at every step, same
// termination behavior, and identical state after a jump-forward insertion
// is rolled back. Both run the same session code, so this guards the
// pool's reset, not the engine; the independent references are
// TestMaskMatchesFullScan, TestCrossValidationMasks and
// TestBuiltinJSONMatchesEncodingJSON.
func TestEngineSessionReuseMatchesFreshMatcher(t *testing.T) {
	info := testTokenizer(t)
	compiler := NewCompiler(info)
	eng := NewEngine(compiler)
	cg, err := compiler.CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}

	// Dirty a session with a partial generation, then release it so the next
	// OpenSession recycles it.
	dirty := eng.OpenSession(cg)
	if err := dirty.AcceptString(`{"leftover": [1, 2, {"deep": `); err != nil {
		t.Fatal(err)
	}
	dirty.Close()

	s := eng.OpenSession(cg)
	m := NewMatcher(cg)
	words := cg.MaskWords()

	if !masksEqual(s.Mask(), matcherMask(t, m, words)) {
		t.Fatal("recycled session initial mask differs from fresh matcher")
	}
	doc := `{"a": [1, tru`
	for _, id := range info.Encode(doc) {
		res, err := s.Step(id)
		if err != nil {
			t.Fatalf("session step(%d): %v", id, err)
		}
		if err := m.AcceptToken(id); err != nil {
			t.Fatalf("matcher accept(%d): %v", id, err)
		}
		if !masksEqual(s.Mask(), matcherMask(t, m, words)) {
			t.Fatalf("mask diverged after token %d (%q)", id, info.TokenBytes(id))
		}
		if string(res.JumpForward) != m.FindJumpForwardString() {
			t.Fatalf("jump-forward diverged after token %d: %q vs %q",
				id, res.JumpForward, m.FindJumpForwardString())
		}
	}

	// Jump-forward insertion on both, then roll it back on both: the pooled
	// session's rollback history must behave exactly like the fresh matcher's.
	jf := s.JumpForward()
	if !strings.HasPrefix(jf, "e") {
		t.Fatalf("expected deterministic continuation after 'tru', got %q", jf)
	}
	if err := s.AcceptString(jf); err != nil {
		t.Fatal(err)
	}
	if err := m.AcceptString(jf); err != nil {
		t.Fatal(err)
	}
	s.Fill()
	if !masksEqual(s.Mask(), matcherMask(t, m, words)) {
		t.Fatal("mask diverged after jump-forward insertion")
	}
	if err := s.Rollback(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback(1); err != nil {
		t.Fatal(err)
	}
	s.Fill()
	if !masksEqual(s.Mask(), matcherMask(t, m, words)) {
		t.Fatal("mask diverged after rolling back the jump-forward insertion")
	}

	// Finish both generations identically.
	rest := `e]}`
	for _, id := range info.Encode(rest) {
		if _, err := s.Step(id); err != nil {
			t.Fatal(err)
		}
		if err := m.AcceptToken(id); err != nil {
			t.Fatal(err)
		}
	}
	if !s.CanTerminate() || !m.CanTerminate() {
		t.Fatal("cannot terminate after complete document")
	}
	res, err := s.Step(info.EOSTokenID())
	if err != nil || !res.Terminated {
		t.Fatalf("EOS step: %v, %+v", err, res)
	}
	if err := m.AcceptToken(info.EOSTokenID()); err != nil {
		t.Fatal(err)
	}
	if !s.IsTerminated() || !m.IsTerminated() {
		t.Fatal("termination state diverged")
	}
	s.Close()
}

// TestEngineMixedGrammarBatch opens sessions against two different grammars
// (both resolved through the compiled-grammar cache) and batch-fills them
// together in one FillBatch call.
func TestEngineMixedGrammarBatch(t *testing.T) {
	info := testTokenizer(t)
	compiler := NewCompiler(info)
	eng := NewEngine(compiler)
	defer eng.Close()

	jsonSess, err := eng.OpenGrammarSession(`root ::= "[" [0-9]+ "]"`)
	if err != nil {
		t.Fatal(err)
	}
	schemaSess, err := eng.OpenJSONSchemaSession(
		[]byte(`{"type": "object", "properties": {"n": {"type": "integer"}}, "required": ["n"]}`),
		SchemaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	builtinCG, err := compiler.CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	builtinSess := eng.OpenSession(builtinCG)
	sessions := []*Session{jsonSess, schemaSess, builtinSess}

	targets := []string{`[42]`, `{"n": 7}`, `{"ok": true}`}
	emitted := []int{0, 0, 0}
	live := len(sessions)
	for live > 0 {
		stats := eng.FillBatch(sessions)
		if len(stats) != len(sessions) {
			t.Fatalf("stats length %d", len(stats))
		}
		for i, s := range sessions {
			if s.IsTerminated() {
				continue
			}
			var next int32
			if emitted[i] >= len(targets[i]) {
				next = info.EOSTokenID()
			} else {
				next = info.Encode(targets[i][emitted[i]:])[0]
			}
			if s.Mask()[next>>6]&(1<<uint(next&63)) == 0 {
				t.Fatalf("session %d: target token %d masked out", i, next)
			}
			res, err := s.Step(next)
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
			if res.Terminated {
				live--
				continue
			}
			emitted[i] += len(info.TokenBytes(next))
		}
	}
	for _, s := range sessions {
		s.Close()
	}
	if st := compiler.CompileCacheStats(); st.Builds != 3 {
		t.Fatalf("expected 3 grammar builds, got %+v", st)
	}
	// A repeat request for any of the grammars is a cache hit and its
	// session comes from the pool.
	again, err := eng.OpenGrammarSession(`root ::= "[" [0-9]+ "]"`)
	if err != nil {
		t.Fatal(err)
	}
	again.Close()
	if st := compiler.CompileCacheStats(); st.Builds != 3 || st.Hits == 0 {
		t.Fatalf("repeat open was not a cache hit: %+v", st)
	}
}

// TestFillBatchIntoNoAllocs holds the batch round's resource contract: once
// the caller's stats buffer is warm, a FillBatchInto round that recomputes
// every mask performs no heap allocation, and the engine leaves no
// goroutine behind after Close.
func TestFillBatchIntoNoAllocs(t *testing.T) {
	info := testTokenizer(t)
	compiler := NewCompiler(info)
	digits, err := compiler.CompileGrammar(`root ::= "[" [0-9]+ "]"`)
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := compiler.CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	start := runtime.NumGoroutine()
	eng := NewEngine(compiler)

	// Each session gets a token that is legal at its (fixed) position, so a
	// round can advance by it and roll it back, leaving the mask stale.
	sessions := make([]*Session, 8)
	ids := make([]int32, len(sessions))
	for i := range sessions {
		cg := digits
		if i%2 == 1 {
			cg = builtin
		}
		sessions[i] = eng.OpenSession(cg)
		ids[i] = -1
		for id := int32(0); id < int32(info.VocabSize()); id++ {
			if id != info.EOSTokenID() && sessions[i].Mask()[id>>6]&(1<<uint(id&63)) != 0 {
				ids[i] = id
				break
			}
		}
		if ids[i] < 0 {
			t.Fatalf("session %d: no legal token at the start state", i)
		}
	}
	stats := eng.FillBatchInto(nil, sessions)
	fills0, _ := eng.FillCounters()

	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		for i, s := range sessions {
			if err := s.Accept(ids[i]); err != nil {
				t.Fatal(err)
			}
			if err := s.Rollback(1); err != nil {
				t.Fatal(err)
			}
		}
		stats = eng.FillBatchInto(stats, sessions)
	})
	if allocs != 0 {
		t.Errorf("FillBatchInto round allocated %.2f allocs/op, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call before the measured runs.
	if fills, _ := eng.FillCounters(); fills-fills0 != int64((runs+1)*len(sessions)) {
		t.Errorf("%d fills computed over %d rounds of %d sessions", fills-fills0, runs+1, len(sessions))
	}

	for _, s := range sessions {
		s.Close()
	}
	eng.Close()
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > start; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > start {
		t.Errorf("%d goroutines after Engine.Close, %d before NewEngine", n, start)
	}
}
