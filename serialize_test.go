package xgrammar

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"

	"xgrammar/internal/maskcache"
)

func TestSerializeRoundTrip(t *testing.T) {
	info := testTokenizer(t)
	orig, err := NewCompiler(info).CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewCompiler(info).LoadCompiledGrammar(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Masks must be bit-identical at every step of a replay.
	mo, ml := NewMatcher(orig), NewMatcher(loaded)
	maskO := make([]uint64, orig.MaskWords())
	maskL := make([]uint64, loaded.MaskWords())
	doc := `{"a": [1, "two", null]}`
	for i := 0; i <= len(doc); i++ {
		mo.FillNextTokenBitmask(maskO)
		ml.FillNextTokenBitmask(maskL)
		for w := range maskO {
			if maskO[w] != maskL[w] {
				t.Fatalf("mask mismatch at pos %d", i)
			}
		}
		if i < len(doc) {
			if err := mo.AcceptString(doc[i : i+1]); err != nil {
				t.Fatal(err)
			}
			if err := ml.AcceptString(doc[i : i+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Stats survive the round trip.
	if loaded.Stats().ContextIndependent != orig.Stats().ContextIndependent {
		t.Fatal("stats lost in serialization")
	}
	if loaded.GrammarText() == "" {
		t.Fatal("grammar text lost")
	}
}

func TestSerializeVocabMismatch(t *testing.T) {
	info := testTokenizer(t)
	cg, err := NewCompiler(info).CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cg.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	other := DefaultTokenizer(400)
	if _, err := NewCompiler(other).LoadCompiledGrammar(&buf); err == nil {
		t.Fatal("vocab mismatch not detected")
	}
}

func TestSerializeNoCacheVariant(t *testing.T) {
	info := testTokenizer(t)
	cg, err := NewCompiler(info, WithoutMaskCache()).CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cg.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewCompiler(info).LoadCompiledGrammar(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats().HasMaskCache {
		t.Fatal("cacheless grammar gained a cache in transit")
	}
	m := NewMatcher(loaded)
	if err := m.AcceptString(`[true]`); err != nil {
		t.Fatal(err)
	}
}

func TestLoadGarbage(t *testing.T) {
	info := testTokenizer(t)
	if _, err := NewCompiler(info).LoadCompiledGrammar(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("garbage loaded")
	}
}

func TestLoadTruncated(t *testing.T) {
	info := testTokenizer(t)
	cg, err := NewCompiler(info).CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cg.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every truncation point must fail with an error — never a panic, never
	// a silently half-loaded grammar.
	for _, n := range []int{0, 1, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := NewCompiler(info).LoadCompiledGrammar(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncated blob (%d of %d bytes) loaded", n, len(full))
		}
	}
}

// TestLoadRejectsCorruptStructure bit-flips structural fields that gob
// itself cannot catch: indices out of range must be rejected by validation,
// not crash a later matcher step.
func TestLoadRejectsCorruptStructure(t *testing.T) {
	info := testTokenizer(t)
	cg, err := NewCompiler(info).CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*wireGrammar){
		"root out of range":       func(w *wireGrammar) { w.Root = int32(len(w.RuleStart)) + 7 },
		"negative root":           func(w *wireGrammar) { w.Root = -1 },
		"rule start out of range": func(w *wireGrammar) { w.RuleStart[0] = int32(len(w.Nodes)) },
		"edge target out of range": func(w *wireGrammar) {
			for i := range w.Nodes {
				if len(w.Nodes[i].Edges) > 0 {
					w.Nodes[i].Edges[0].To = int32(len(w.Nodes)) + 3
					return
				}
			}
			t.Fatal("no edges to corrupt")
		},
		"node rule out of range": func(w *wireGrammar) { w.Nodes[0].Rule = 9999 },
		"masks/nodes mismatch":   func(w *wireGrammar) { w.Masks = w.Masks[:len(w.Masks)-1] },
		"mask token beyond vocabulary": func(w *wireGrammar) {
			for i := range w.Masks {
				w.Masks[i].Tokens = append(w.Masks[i].Tokens, int32(w.VocabSize)+5)
				return
			}
		},
		"mask ctx token beyond vocabulary": func(w *wireGrammar) {
			for i := range w.Masks {
				w.Masks[i].Ctx = append(w.Masks[i].Ctx, int32(w.VocabSize))
				return
			}
		},
		"unknown mask kind": func(w *wireGrammar) { w.Masks[0].Kind = 42 },
		"no nodes":          func(w *wireGrammar) { w.Nodes = nil; w.Masks = nil },
		"bitset padding bits set": func(w *wireGrammar) {
			for i := range w.Masks {
				if w.Masks[i].Kind == maskcache.WordMask {
					w.Masks[i].Bits[len(w.Masks[i].Bits)-1] |= 1 << 63
					return
				}
			}
			// No word-mask node in this grammar: fabricate one with the right
			// word count but a padding bit set beyond the vocabulary.
			words := (w.VocabSize + 63) / 64
			bits := make([]uint64, words)
			bits[words-1] = 1 << 63
			w.Masks[0] = maskcache.WireMask{Kind: maskcache.WordMask, Bits: bits}
		},
		"accept count mismatch": func(w *wireGrammar) { w.Masks[0].AcceptCount += 7 },
		"kind flipped against count": func(w *wireGrammar) {
			// A flipped Kind byte passes every bounds check but inverts the
			// mask's meaning; only the redundant AcceptCount can catch it.
			for i := range w.Masks {
				m := &w.Masks[i]
				if m.Kind == maskcache.AcceptList && len(m.Tokens) > 0 {
					m.Kind = maskcache.RejectList
					return
				}
				if m.Kind == maskcache.RejectList {
					m.Kind = maskcache.AcceptList
					return
				}
			}
			t.Fatal("no list-kind mask to flip")
		},
		"words stored on a list kind": func(w *wireGrammar) {
			for i := range w.Masks {
				if w.Masks[i].Kind != maskcache.WordMask {
					w.Masks[i].Bits = make([]uint64, (w.VocabSize+63)/64)
					return
				}
			}
			t.Fatal("no list-kind mask")
		},
		"special token in token list": func(w *wireGrammar) {
			for i := range w.Masks {
				m := &w.Masks[i]
				if m.Kind == maskcache.AcceptList {
					// Special ids sit below the regular range, so prepending
					// keeps the list ascending — only the special check fires.
					m.Tokens = append([]int32{0}, m.Tokens...)
					m.AcceptCount++
					return
				}
			}
			t.Fatal("no accept-list mask")
		},
		"special bit set in word mask": func(w *wireGrammar) {
			words := (w.VocabSize + 63) / 64
			bits := make([]uint64, words)
			bits[0] = 1 << 2 // EosID
			w.Masks[0] = maskcache.WireMask{Kind: maskcache.WordMask, Bits: bits, AcceptCount: 1}
		},
		"unsorted token list": func(w *wireGrammar) {
			for i := range w.Masks {
				if len(w.Masks[i].Tokens) >= 2 {
					t0 := w.Masks[i].Tokens
					t0[0], t0[1] = t0[1], t0[0]
					return
				}
			}
			t.Fatal("no token list to shuffle")
		},
		"duplicate ctx token": func(w *wireGrammar) {
			for i := range w.Masks {
				if len(w.Masks[i].Ctx) >= 1 {
					w.Masks[i].Ctx = append(w.Masks[i].Ctx, w.Masks[i].Ctx[len(w.Masks[i].Ctx)-1])
					return
				}
			}
			t.Fatal("no ctx list to duplicate")
		},
	}
	for name, mutate := range cases {
		blob := rewire(t, cg, mutate)
		if _, err := NewCompiler(info).LoadCompiledGrammar(blob); err == nil {
			t.Errorf("%s: corrupt blob loaded", name)
		}
	}
}

// rewire serializes cg, decodes the wire struct, applies mutate, and
// re-encodes — simulating blobs from other builds or tokenizers.
func rewire(t *testing.T, cg *CompiledGrammar, mutate func(*wireGrammar)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := cg.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	var wire wireGrammar
	if err := gob.NewDecoder(&buf).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	mutate(&wire)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&wire); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestLoadRejectsOldVersion(t *testing.T) {
	info := testTokenizer(t)
	cg, err := NewCompiler(info).CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2} {
		old := rewire(t, cg, func(w *wireGrammar) { w.Version = v })
		_, err = NewCompiler(info).LoadCompiledGrammar(old)
		if err == nil {
			t.Fatalf("version-%d blob loaded", v)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("error does not identify the old version %d: %v", v, err)
		}
	}
}

func TestLoadRejectsFingerprintMismatch(t *testing.T) {
	info := testTokenizer(t)
	cg, err := NewCompiler(info).CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Same vocabulary size, different token bytes: exactly the corruption a
	// size-only check misses.
	tampered := rewire(t, cg, func(w *wireGrammar) { w.TokFingerprint ^= 0xdeadbeef })
	_, err = NewCompiler(info).LoadCompiledGrammar(tampered)
	if err == nil {
		t.Fatal("fingerprint mismatch not detected")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error does not mention the fingerprint: %v", err)
	}
}
