// Quickstart: compile the built-in JSON grammar and run a guided random
// generation. The mask guarantees every sampled token keeps the output
// inside the grammar, so the final text is always valid JSON.
package main

import (
	"fmt"
	"math/rand"

	"xgrammar"
)

func main() {
	// 1. A tokenizer. DefaultTokenizer trains (once, cached) a byte-level
	//    BPE vocabulary on the built-in corpus.
	info := xgrammar.DefaultTokenizer(4000)

	// 2. Compile a grammar against that tokenizer. Compilation builds the
	//    pushdown automaton and the adaptive token mask cache.
	compiler := xgrammar.NewCompiler(info)
	cg, err := compiler.CompileBuiltinJSON()
	if err != nil {
		panic(err)
	}
	st := cg.Stats()
	fmt.Printf("compiled JSON grammar: %d PDA nodes, %d context-dependent tokens\n",
		st.PDANodes, st.ContextDependent)

	// 3. Decode with a mask. Here the "model" samples uniformly from the
	//    allowed tokens — a worst-case model — yet the output stays valid.
	rng := rand.New(rand.NewSource(7))
	m := xgrammar.NewMatcher(cg)
	mask := make([]uint64, cg.MaskWords())
	var out []int32
	for steps := 0; steps < 120 && !m.IsTerminated(); steps++ {
		if _, err := m.FillNextTokenBitmask(mask); err != nil {
			panic(err)
		}
		var allowed []int32
		for id := 0; id < info.VocabSize(); id++ {
			if mask[id>>6]&(1<<uint(id&63)) != 0 {
				allowed = append(allowed, int32(id))
			}
		}
		pick := allowed[rng.Intn(len(allowed))]
		// Nudge the walk toward termination so the demo stays short.
		if m.CanTerminate() && rng.Intn(2) == 0 {
			pick = info.EOSTokenID()
		}
		if err := m.AcceptToken(pick); err != nil {
			panic(err)
		}
		if pick != info.EOSTokenID() {
			out = append(out, pick)
		}
	}
	text := info.Decode(out)
	fmt.Printf("generated (%d tokens): %s\n", len(out), text)

	// 4. Verify with a fresh matcher: the text must parse, and be a complete
	// document when the generation ended on the stop token.
	v := xgrammar.NewMatcher(cg)
	if err := v.AcceptString(text); err != nil || (m.IsTerminated() && !v.CanTerminate()) {
		panic("generated text is not valid under the grammar")
	}
	fmt.Println("verified: output is inside the grammar")
}
