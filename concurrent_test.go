package xgrammar

import (
	"sync"
	"testing"
)

// TestCompileSingleflight has 16 goroutines compile the same source through
// one compiler; the cache must coalesce them into exactly one build, and
// every caller must receive the same compiled grammar.
func TestCompileSingleflight(t *testing.T) {
	c := NewCompiler(testTokenizer(t))
	const callers = 16
	src := `root ::= "{" ( "\"k\":" ( "true" | "false" ) )? "}"`
	var wg sync.WaitGroup
	grammars := make([]*CompiledGrammar, callers)
	errs := make([]error, callers)
	gate := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			grammars[i], errs[i] = c.CompileGrammar(src)
		}(i)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if grammars[i] != grammars[0] {
			t.Fatalf("caller %d received a different compiled grammar", i)
		}
	}
	st := c.CompileCacheStats()
	if st.Builds != 1 {
		t.Fatalf("Builds = %d, want exactly 1 (stats %+v)", st.Builds, st)
	}
	if st.Misses != 1 || st.Hits+st.Coalesced != callers-1 {
		t.Fatalf("cache counters inconsistent: %+v", st)
	}
}

// TestCompileCacheHit verifies that recompiling the same source returns the
// cached grammar without rebuilding, and that distinct sources, options, or
// tokenizers get distinct cache entries.
func TestCompileCacheHit(t *testing.T) {
	info := testTokenizer(t)
	c := NewCompiler(info)
	a1, err := c.CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("second compile did not hit the cache")
	}
	st := c.CompileCacheStats()
	if st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A different grammar misses.
	if _, err := c.CompileGrammar(`root ::= "x"`); err != nil {
		t.Fatal(err)
	}
	if st = c.CompileCacheStats(); st.Builds != 2 {
		t.Fatalf("distinct source shared an entry: %+v", st)
	}
	// Schema options are part of the key.
	schema := []byte(`{"type": "object", "properties": {"a": {"type": "integer"}}}`)
	s1, err := c.CompileJSONSchema(schema, SchemaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.CompileJSONSchema(schema, SchemaOptions{AllowAdditionalProperties: true})
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("different schema options shared a cache entry")
	}
	// A disabled cache rebuilds every time.
	nc := NewCompiler(info, WithoutCompileCache())
	b1, _ := nc.CompileBuiltinJSON()
	b2, _ := nc.CompileBuiltinJSON()
	if b1 == b2 {
		t.Fatal("cacheless compiler returned a shared grammar")
	}
	if st := nc.CompileCacheStats(); st != (CompileCacheStats{Compiles: 2}) {
		t.Fatalf("cacheless compiler reported cache stats: %+v", st)
	}
}

func TestCompileGrammarAsync(t *testing.T) {
	c := NewCompiler(testTokenizer(t))
	f := c.CompileGrammarAsync(`root ::= "a" | "b"`)
	cg, err := f.Result()
	if err != nil || cg == nil {
		t.Fatalf("async result: %v, %v", cg, err)
	}
	if _, _, ok := f.Poll(); !ok {
		t.Fatal("Poll not ready after Result returned")
	}
	// The future resolves through the same cache as the blocking path.
	direct, err := c.CompileGrammar(`root ::= "a" | "b"`)
	if err != nil || direct != cg {
		t.Fatalf("async result not shared with cache: %v, %v", direct, err)
	}
	// Errors propagate.
	if _, err := c.CompileGrammarAsync(`root ::= undefined_rule`).Result(); err == nil {
		t.Fatal("async compile of invalid grammar succeeded")
	}
	// The schema variant works too.
	if cg, err := c.CompileJSONSchemaAsync([]byte(`{"type": "boolean"}`), SchemaOptions{}).Result(); err != nil || cg == nil {
		t.Fatalf("schema async: %v, %v", cg, err)
	}
}

// TestFillMaskLengthValidation: an undersized mask returns a clear error
// instead of an out-of-range panic; an oversized mask's extra words are
// ignored.
func TestFillMaskLengthValidation(t *testing.T) {
	cg := mustCompileJSON(t)
	m := NewMatcher(cg)
	if _, err := m.FillNextTokenBitmask(make([]uint64, cg.MaskWords()-1)); err == nil {
		t.Fatal("no error for a mask shorter than MaskWords()")
	}
	big := make([]uint64, cg.MaskWords()+3)
	sentinel := ^uint64(0)
	big[len(big)-1] = sentinel
	if _, err := m.FillNextTokenBitmask(big); err != nil {
		t.Fatal(err)
	}
	if big[len(big)-1] != sentinel {
		t.Fatal("fill wrote past MaskWords()")
	}
}
