package xgrammar

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/bits"

	"xgrammar/internal/bitset"
	"xgrammar/internal/ebnf"
	"xgrammar/internal/fsa"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/pda"
)

// serializeVersion guards the wire format. Version 2 added TokFingerprint;
// version 3 renumbered the mask storage kinds to the popcount-selected
// adaptive representations (AcceptList/RejectList/WordMask) and added a
// per-mask AcceptCount integrity field. Blobs of any other version are
// rejected with a recompile hint (a grammar store quarantines them and
// recompiles).
const serializeVersion = 3

// wireGrammar is the gob wire form of a CompiledGrammar. The grammar is
// carried as EBNF text (re-parsed on load, cheap); the PDA and the adaptive
// token mask cache — the expensive preprocessing artifacts — are carried
// verbatim so loading skips the vocabulary scan entirely.
type wireGrammar struct {
	Version   int
	VocabSize int
	// TokFingerprint is the tokenizer's vocabulary hash (over all token
	// bytes); a mask cache is only valid against the exact vocabulary it was
	// scanned with, so load verifies it.
	TokFingerprint uint64
	Grammar        string
	Nodes          []pda.Node
	RuleStart      []int32
	Root           int32
	HasCache       bool
	Masks          []maskcache.WireMask
	CacheStats     maskcache.Stats
	CtxExp         bool
	MaxHistory     int
}

// Serialize writes the compiled grammar — including the preprocessed mask
// cache — to w, so deployments can compile once and load instantly.
func (cg *CompiledGrammar) Serialize(w io.Writer) error {
	wire := wireGrammar{
		Version:        serializeVersion,
		VocabSize:      cg.info.VocabSize(),
		TokFingerprint: cg.info.tok.Fingerprint(),
		Grammar:        cg.pda.Grammar.String(),
		Nodes:          cg.pda.Nodes,
		RuleStart:      cg.pda.RuleStart,
		Root:           cg.pda.Root,
		HasCache:       cg.cache != nil,
		CtxExp:         cg.cfg.cacheOpts.ContextExpansion,
		MaxHistory:     cg.cfg.maxHistory,
	}
	if cg.cache != nil {
		wire.Masks = cg.cache.ToWire()
		wire.CacheStats = cg.cache.Stats()
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// LoadCompiledGrammar reads a grammar serialized by Serialize. The tokenizer
// must be the one the grammar was compiled against: both the vocabulary size
// and a fingerprint over every token's bytes are verified, so a cache scanned
// under a different vocabulary can never be loaded silently.
func (c *Compiler) LoadCompiledGrammar(r io.Reader) (*CompiledGrammar, error) {
	var wire wireGrammar
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("xgrammar: load: %w", err)
	}
	if wire.Version != serializeVersion {
		return nil, fmt.Errorf("xgrammar: load: unsupported serialization version %d (this build reads version %d — recompile the grammar and serialize again)",
			wire.Version, serializeVersion)
	}
	if wire.VocabSize != c.info.VocabSize() {
		return nil, fmt.Errorf("xgrammar: load: grammar compiled for vocab %d, tokenizer has %d",
			wire.VocabSize, c.info.VocabSize())
	}
	if fp := c.info.tok.Fingerprint(); wire.TokFingerprint != fp {
		return nil, fmt.Errorf("xgrammar: load: tokenizer fingerprint mismatch (grammar %016x, tokenizer %016x): the grammar was compiled against a different vocabulary",
			wire.TokFingerprint, fp)
	}
	g, err := ebnf.Parse(wire.Grammar)
	if err != nil {
		return nil, fmt.Errorf("xgrammar: load: embedded grammar: %w", err)
	}
	regular := int32(len(c.info.tok.SortedRegularIDs()))
	if err := validateWire(&wire, len(g.Rules), regular, c.info.tok.SpecialIDs()); err != nil {
		return nil, fmt.Errorf("xgrammar: load: %w", err)
	}
	p := pda.FromParts(g, wire.Nodes, wire.RuleStart, wire.Root)
	cfg := c.cfg
	cfg.useCache = wire.HasCache
	cfg.cacheOpts.ContextExpansion = wire.CtxExp
	cfg.maxHistory = wire.MaxHistory
	cg := &CompiledGrammar{info: c.info, pda: p, cfg: cfg}
	if wire.HasCache {
		cg.cache = maskcache.FromParts(p, c.info.tok, maskcache.FromWire(wire.Masks), wire.CacheStats)
	}
	return cg, nil
}

// validateWire bounds-checks the decoded automaton and mask cache before
// they are wired into live structures: a truncated or bit-flipped blob must
// fail the load with an error, never corrupt a matcher or panic at decode
// time. numRules is the rule count of the re-parsed embedded grammar;
// regular is the tokenizer's regular-token count and specials its special
// ids (special tokens must never appear in a stored mask — the fused fill
// ORs stored words and lists into session masks verbatim, with no final
// special-clearing pass).
func validateWire(w *wireGrammar, numRules int, regular int32, specials []int32) error {
	nNodes := int32(len(w.Nodes))
	if len(w.Nodes) == 0 {
		return fmt.Errorf("corrupt blob: no PDA nodes")
	}
	if len(w.RuleStart) != numRules {
		return fmt.Errorf("corrupt blob: %d rule starts for %d grammar rules", len(w.RuleStart), numRules)
	}
	if w.Root < 0 || int(w.Root) >= len(w.RuleStart) {
		return fmt.Errorf("corrupt blob: root rule %d out of range [0, %d)", w.Root, len(w.RuleStart))
	}
	for r, start := range w.RuleStart {
		if start < 0 || start >= nNodes {
			return fmt.Errorf("corrupt blob: rule %d starts at node %d, automaton has %d nodes", r, start, nNodes)
		}
	}
	for i := range w.Nodes {
		n := &w.Nodes[i]
		if n.Rule < 0 || int(n.Rule) >= numRules {
			return fmt.Errorf("corrupt blob: node %d owned by rule %d of %d", i, n.Rule, numRules)
		}
		for _, e := range n.Edges {
			if e.To < 0 || e.To >= nNodes {
				return fmt.Errorf("corrupt blob: node %d edge targets node %d of %d", i, e.To, nNodes)
			}
			if e.Kind == fsa.EdgeRule && (e.Rule < 0 || int(e.Rule) >= numRules) {
				return fmt.Errorf("corrupt blob: node %d edge enters rule %d of %d", i, e.Rule, numRules)
			}
		}
	}
	if !w.HasCache {
		return nil
	}
	if len(w.Masks) != len(w.Nodes) {
		return fmt.Errorf("corrupt blob: %d node masks for %d nodes", len(w.Masks), len(w.Nodes))
	}
	vocab := int32(w.VocabSize)
	words := bitset.WordsFor(w.VocabSize)
	for i := range w.Masks {
		m := &w.Masks[i]
		if m.Kind > maskcache.WordMask { // StorageKind is unsigned; no lower bound to check
			return fmt.Errorf("corrupt blob: mask %d has unknown storage kind %d", i, m.Kind)
		}
		if m.Kind == maskcache.WordMask {
			if len(m.Bits) != words {
				return fmt.Errorf("corrupt blob: mask %d holds %d bitset words, vocabulary needs %d", i, len(m.Bits), words)
			}
			// Padding bits beyond the vocabulary must be zero: they would be
			// OR-ed into session masks verbatim and decode to token ids past
			// the vocabulary (an unchecked index at accept time).
			if rem := uint(w.VocabSize % 64); rem != 0 && m.Bits[words-1]>>rem != 0 {
				return fmt.Errorf("corrupt blob: mask %d sets bits beyond vocabulary %d", i, vocab)
			}
			for _, id := range specials {
				if m.Bits[id>>6]&(1<<uint(id&63)) != 0 {
					return fmt.Errorf("corrupt blob: mask %d sets special token %d", i, id)
				}
			}
			if len(m.Tokens) != 0 {
				return fmt.Errorf("corrupt blob: mask %d stores words and a %d-entry token list", i, len(m.Tokens))
			}
		} else if len(m.Bits) != 0 {
			return fmt.Errorf("corrupt blob: mask %d has storage kind %d but %d bitset words", i, m.Kind, len(m.Bits))
		}
		// Token lists must be strictly ascending (sorted, duplicate-free):
		// the fused word-level merge assumes it, and a reordered list would
		// silently produce wrong masks rather than fail the load.
		if err := checkTokenList(m.Tokens, vocab, specials, i, "token"); err != nil {
			return err
		}
		if err := checkTokenList(m.Ctx, vocab, specials, i, "context token"); err != nil {
			return err
		}
		// AcceptCount must agree with the stored representation: a flipped
		// Kind byte inverts the mask's meaning while passing every bounds
		// check, so the redundant popcount is the integrity anchor.
		var want int32
		switch m.Kind {
		case maskcache.AcceptList:
			want = int32(len(m.Tokens))
		case maskcache.RejectList:
			want = regular - int32(len(m.Tokens)) - int32(len(m.Ctx))
		case maskcache.WordMask:
			for _, wd := range m.Bits {
				want += int32(bits.OnesCount64(wd))
			}
		}
		if m.AcceptCount != want {
			return fmt.Errorf("corrupt blob: mask %d kind %s claims %d accepted tokens, stored lists imply %d", i, m.Kind, m.AcceptCount, want)
		}
	}
	return nil
}

// checkTokenList verifies a wire mask's id list is in-range, strictly
// ascending, and free of special token ids.
func checkTokenList(ids []int32, vocab int32, specials []int32, mask int, what string) error {
	for j, id := range ids {
		if id < 0 || id >= vocab {
			return fmt.Errorf("corrupt blob: mask %d lists %s %d of vocabulary %d", mask, what, id, vocab)
		}
		if j > 0 && id <= ids[j-1] {
			return fmt.Errorf("corrupt blob: mask %d %s list not strictly ascending at index %d", mask, what, j)
		}
		for _, sp := range specials {
			if id == sp {
				return fmt.Errorf("corrupt blob: mask %d lists special token %d as %s", mask, id, what)
			}
		}
	}
	return nil
}
