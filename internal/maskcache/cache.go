package maskcache

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"xgrammar/internal/bitset"
	"xgrammar/internal/fsa"
	"xgrammar/internal/matcher"
	"xgrammar/internal/pda"
	"xgrammar/internal/pstack"
	"xgrammar/internal/tokenizer"
)

// StorageKind is the adaptive storage format chosen for one node (§3.1),
// selected at compile time by the popcount of the node's context-independent
// accept set.
type StorageKind uint8

const (
	// AcceptList is the sparse representation: few tokens are accepted, so
	// the node stores the sorted accepted ids.
	AcceptList StorageKind = iota
	// RejectList is the dense representation: most tokens are accepted, so
	// the node stores the sorted rejected ids.
	RejectList
	// WordMask is the mid-density representation: both lists would be larger
	// than a bitmask, so the node stores the accepted set as []uint64 words.
	WordMask
)

func (k StorageKind) String() string {
	switch k {
	case AcceptList:
		return "accept-list"
	case RejectList:
		return "reject-list"
	default:
		return "word-mask"
	}
}

// NodeMask is the cached classification for one PDA node as stack top.
type NodeMask struct {
	Kind StorageKind
	// Tokens holds the accepted (AcceptList) or rejected (RejectList)
	// context-independent token ids, sorted ascending.
	Tokens []int32
	// Words holds the accepted context-independent tokens as a word bitmask
	// for WordMask nodes.
	Words []uint64
	// Ctx holds context-dependent token ids, sorted by id.
	Ctx []int32
	// canonical is the materialized context-independent accept mask (special
	// tokens clear), used by the fused fill to OR (or memcpy) whole words
	// instead of branching per token. For WordMask nodes it aliases Words;
	// for RejectList nodes it is materialized within the canonical budget;
	// nil means the fill falls back to the list form.
	canonical []uint64
	// counts for statistics
	numAccepted int
	numRejected int
}

// DefaultCanonicalBudget bounds the extra memory spent materializing
// canonical word masks for dense (RejectList) nodes. The adaptive lists
// remain the stored representation; canonicals are a bounded runtime cache.
const DefaultCanonicalBudget = 4 << 20

// Options configures cache construction.
type Options struct {
	// ContextExpansion enables the §3.2 filter that reclassifies
	// context-dependent tokens as rejected using expanded-suffix automata.
	ContextExpansion bool
	// Workers bounds the preprocessing worker pool. Zero means
	// runtime.GOMAXPROCS(0); one forces the serial build. The vocabulary scan
	// is sharded by token-trie subtree, and shard boundaries depend only on
	// the vocabulary, so the cache (and its statistics) is byte-identical for
	// any worker count.
	Workers int
	// CanonicalBudget bounds the bytes spent on materialized canonical word
	// masks (0 means DefaultCanonicalBudget, negative disables them).
	CanonicalBudget int64
}

// Stats reports cache construction statistics (the §3.1–§3.3 numbers).
type Stats struct {
	Nodes           int
	VocabSize       int
	CIAccepted      int64
	CIRejected      int64
	CtxDependent    int64
	MaxCtxPerNode   int
	StorageBytes    int64 // adaptive storage cost
	FullBitsetBytes int64 // cost if every node stored a full bitset
	CanonicalBytes  int64 // extra bytes spent on materialized canonical masks
	CharsStepped    int64 // bytes consumed with prefix sharing
	CharsTotal      int64 // bytes a naive per-token scan would consume
	// KindCounts counts nodes per StorageKind, indexed by AcceptList,
	// RejectList, WordMask.
	KindCounts [3]int
}

// Cache is the adaptive token mask cache: one NodeMask per PDA node.
type Cache struct {
	P     *pda.PDA
	Tok   *tokenizer.Tokenizer
	Vocab int
	Nodes []NodeMask
	// allWords is the full regular vocabulary as a word mask (every
	// non-special token set) — the identity the dense merge subtracts
	// reject-lists from.
	allWords []uint64
	stats    Stats
}

// vocabShard is a contiguous range [Lo, Hi) of the lexicographically sorted
// vocabulary. Boundaries are aligned to token-trie subtree edges so prefix
// sharing inside a shard is unharmed (tokens on opposite sides of a root
// boundary share no prefix to begin with).
type vocabShard struct{ Lo, Hi int }

// defaultMaxShards bounds the shard count. It is fixed (not derived from the
// worker count) so the shard structure — and therefore every per-shard
// statistic — is identical no matter how many workers run the build.
const defaultMaxShards = 64

// shardVocab splits the sorted vocabulary into at most maxShards contiguous
// shards, cutting at the shallowest token-trie boundary inside each target
// window: a cut where adjacent tokens share no prefix loses no prefix
// sharing at all, and a cut at depth d loses at most d shared bytes.
func shardVocab(tok *tokenizer.Tokenizer, maxShards int) []vocabShard {
	sorted := tok.SortedRegularIDs()
	total := len(sorted)
	if total == 0 {
		return nil
	}
	target := (total + maxShards - 1) / maxShards
	// Every shard pays one root closure and restarts prefix sharing, so tiny
	// shards cost more in overhead than they buy in parallelism; small
	// vocabularies get few (or single) shards.
	if target < 1024 {
		target = 1024
	}
	var out []vocabShard
	lo := 0
	for lo < total {
		if total-lo <= target*3/2 {
			out = append(out, vocabShard{lo, total})
			break
		}
		hi := lo + target
		maxHi := lo + target*2
		if maxHi > total {
			maxHi = total
		}
		cut, cutDepth := maxHi, 1<<30
		for i := hi; i < maxHi; i++ {
			d := commonPrefix(tok.TokenBytes(sorted[i-1]), tok.TokenBytes(sorted[i]))
			if d < cutDepth {
				cut, cutDepth = i, d
			}
			if d == 0 {
				break // a trie-root boundary: the perfect cut
			}
		}
		out = append(out, vocabShard{lo, cut})
		lo = cut
	}
	return out
}

// shardResult holds one (node, shard) scan's classification, in the shard's
// byte-lexicographic order.
type shardResult struct {
	acc, rej, ctx []int32
}

// Build preprocesses the full vocabulary against every PDA node. The scan is
// sharded two ways: across nodes, and — within a node — across token-trie
// subtrees of the sorted vocabulary, so even a grammar with few states keeps
// every worker busy. Shard results concatenate in shard order and land
// directly in the node's adaptive representation; shard boundaries are
// worker-independent, so the result (and its statistics) is byte-identical
// for any worker count.
func Build(p *pda.PDA, tok *tokenizer.Tokenizer, opts Options) *Cache {
	c := &Cache{P: p, Tok: tok, Vocab: tok.VocabSize(), Nodes: make([]NodeMask, len(p.Nodes))}
	c.stats.Nodes = len(p.Nodes)
	c.stats.VocabSize = c.Vocab
	c.buildAllWords()

	// Expanded-suffix DFAs, one per rule (§3.2), shared read-only by all
	// workers.
	var ctxDFA []*fsa.DFA
	if opts.ContextExpansion {
		follow := p.FollowAutomata()
		ctxDFA = make([]*fsa.DFA, len(p.RuleStart))
		for r, ctx := range follow {
			d, err := fsa.Determinize(ctx)
			if err == nil {
				ctxDFA[r] = d
			}
		}
	}

	// Dead-end nodes are finalized without a scan; the rest become
	// node-major × shard-minor tasks.
	sorted := tok.SortedRegularIDs()
	var scanNodes []int32
	for n := range p.Nodes {
		if len(p.Nodes[n].Edges) == 0 {
			// Dead-end node: the runtime skips it (its pop-closure peers
			// carry the mask). Store an empty sparse mask.
			c.Nodes[n] = NodeMask{Kind: AcceptList, numRejected: len(sorted)}
			c.stats.CIRejected += int64(len(sorted))
			continue
		}
		scanNodes = append(scanNodes, int32(n))
	}

	shards := shardVocab(tok, defaultMaxShards)
	nsh := len(shards)
	numTasks := len(scanNodes) * nsh
	if numTasks > 0 {
		results := make([]shardResult, numTasks)
		remaining := make([]atomic.Int32, len(scanNodes))
		for i := range remaining {
			remaining[i].Store(int32(nsh))
		}

		workers := opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > numTasks {
			workers = numTasks
		}

		run := func(w *buildWorker) {
			for {
				t := int(w.next.Add(1)) - 1
				if t >= numTasks {
					return
				}
				ni, si := t/nsh, t%nsh
				if len(w.free) > 0 {
					results[t] = w.free[len(w.free)-1]
					w.free = w.free[:len(w.free)-1]
				}
				w.scanShard(int(scanNodes[ni]), shards[si], &results[t])
				if remaining[ni].Add(-1) == 0 {
					w.finalizeNode(int(scanNodes[ni]), results[ni*nsh:(ni+1)*nsh])
				}
			}
		}

		var next atomic.Int64
		if workers <= 1 {
			w := newBuildWorker(c, ctxDFA, &next)
			run(w)
			c.stats.mergeNodeStats(&w.stats)
		} else {
			var mu sync.Mutex
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := newBuildWorker(c, ctxDFA, &next)
					run(w)
					mu.Lock()
					c.stats.mergeNodeStats(&w.stats)
					mu.Unlock()
				}()
			}
			wg.Wait()
		}
	}

	for i := range c.Nodes {
		c.stats.StorageBytes += c.Nodes[i].storageBytes()
		c.stats.KindCounts[c.Nodes[i].Kind]++
	}
	c.stats.FullBitsetBytes = int64(len(p.Nodes)) * int64(bitset.WordsFor(c.Vocab)) * 8
	c.materializeCanonical(opts.CanonicalBudget)
	return c
}

// buildAllWords materializes the all-regular-tokens mask.
func (c *Cache) buildAllWords() {
	b := bitset.New(c.Vocab)
	b.SetAll()
	for _, id := range c.Tok.SpecialIDs() {
		b.Clear(int(id))
	}
	c.allWords = b.Words()
}

// materializeCanonical gives every node a word-level canonical accept mask
// where it pays: WordMask nodes alias their stored words for free; dense
// RejectList nodes get one materialized (identity minus the reject and ctx
// lists) while the byte budget lasts, turning their share of the fused merge
// into a single OR (or, alone, a memcpy). Sparse AcceptList nodes stay as
// lists — clearing the mask and setting a short list already runs at word
// speed. Deterministic: nodes are visited in index order.
func (c *Cache) materializeCanonical(budget int64) {
	if budget == 0 {
		budget = DefaultCanonicalBudget
	}
	cost := int64(bitset.WordsFor(c.Vocab)) * 8
	for i := range c.Nodes {
		nm := &c.Nodes[i]
		switch nm.Kind {
		case WordMask:
			nm.canonical = nm.Words
		case RejectList:
			if budget < cost || len(c.P.Nodes[i].Edges) == 0 {
				continue
			}
			b := bitset.New(c.Vocab)
			b.CopyWordsCount(c.allWords)
			b.ClearList(nm.Tokens)
			b.ClearList(nm.Ctx)
			nm.canonical = b.Words()
			budget -= cost
			c.stats.CanonicalBytes += cost
		}
	}
}

// buildWorker scans (node, shard) tasks. Each worker owns its executor (and
// therefore its persistent stack tree) plus scratch buffers; the shared
// Cache is written only at disjoint node indices.
type buildWorker struct {
	c      *Cache
	exec   *matcher.Exec
	sorted []int32
	ctxDFA []*fsa.DFA
	stats  Stats
	next   *atomic.Int64
	// scratch
	ovDepths []int
	sim      prefixSim
	// free recycles shard scan buffers: finalizeNode returns the node's
	// buffers here once their contents are folded into the stored mask, and
	// the run loop hands them back out for upcoming tasks. Ownership is
	// race-free — a finalizing worker acquires the buffers through the
	// node's remaining-counter decrement.
	free []shardResult
}

func newBuildWorker(c *Cache, ctxDFA []*fsa.DFA, next *atomic.Int64) *buildWorker {
	return &buildWorker{c: c, exec: matcher.NewExec(c.P), sorted: c.Tok.SortedRegularIDs(), ctxDFA: ctxDFA, next: next}
}

// scanShard classifies the shard's tokens against node n as stack top,
// appending to res in byte-lexicographic order.
func (w *buildWorker) scanShard(n int, sh vocabShard, res *shardResult) {
	c := w.c
	root := append(w.exec.GetSet(), matcher.State{Stack: pstack.Empty, Node: int32(n)})
	sim := &w.sim
	sim.init(w.exec, root)
	var dfa *fsa.DFA
	if w.ctxDFA != nil {
		dfa = w.ctxDFA[c.P.Nodes[n].Rule]
	}
	for _, id := range w.sorted[sh.Lo:sh.Hi] {
		tb := c.Tok.TokenBytes(id)
		depth, alive := sim.run(tb)
		if alive {
			res.acc = append(res.acc, id)
			continue
		}
		w.ovDepths = sim.overflowDepths(w.ovDepths[:0], depth)
		isCtx := false
		for _, d := range w.ovDepths {
			if d == len(tb) {
				continue // exact completion: covered by pop-closure
			}
			suffix := tb[d:]
			if dfa == nil {
				isCtx = true
				break
			}
			r := dfa.MatchPrefix(suffix)
			if r.Alive || r.SawAccept {
				isCtx = true
				break
			}
		}
		if isCtx {
			res.ctx = append(res.ctx, id)
		} else {
			res.rej = append(res.rej, id)
		}
	}
	sim.release()
	w.stats.CharsStepped += sim.CharsStepped
	w.stats.CharsTotal += sim.CharsTotal
}

// finalizeNode folds the node's shard results straight into the selected
// adaptive representation. Only the stored list is concatenated and sorted —
// the discarded side contributes nothing but its length to kind selection,
// and on dense grammars it runs to the whole vocabulary. Runs once per node,
// on whichever worker finished the node's last shard; that worker then owns
// the shard buffers and recycles them through its freelist.
func (w *buildWorker) finalizeNode(n int, parts []shardResult) {
	var na, nr, nc int
	for i := range parts {
		na += len(parts[i].acc)
		nr += len(parts[i].rej)
		nc += len(parts[i].ctx)
	}
	nm := NodeMask{Kind: selectKind(na, nr, w.c.Vocab), numAccepted: na, numRejected: nr}
	if nc > 0 {
		ctx := make([]int32, 0, nc)
		for i := range parts {
			ctx = append(ctx, parts[i].ctx...)
		}
		slices.Sort(ctx)
		nm.Ctx = ctx
	}
	switch nm.Kind {
	case AcceptList:
		if na > 0 {
			tokens := make([]int32, 0, na)
			for i := range parts {
				tokens = append(tokens, parts[i].acc...)
			}
			slices.Sort(tokens)
			nm.Tokens = tokens
		}
	case RejectList:
		if nr > 0 {
			tokens := make([]int32, 0, nr)
			for i := range parts {
				tokens = append(tokens, parts[i].rej...)
			}
			slices.Sort(tokens)
			nm.Tokens = tokens
		}
	default:
		b := bitset.New(w.c.Vocab)
		for i := range parts {
			b.SetList(parts[i].acc)
		}
		nm.Words = b.Words()
	}
	w.c.Nodes[n] = nm
	for i := range parts {
		w.free = append(w.free, shardResult{acc: parts[i].acc[:0], rej: parts[i].rej[:0], ctx: parts[i].ctx[:0]})
		parts[i] = shardResult{}
	}
	w.stats.CIAccepted += int64(na)
	w.stats.CIRejected += int64(nr)
	w.stats.CtxDependent += int64(nc)
	if nc > w.stats.MaxCtxPerNode {
		w.stats.MaxCtxPerNode = nc
	}
}

// mergeNodeStats folds one worker's per-node counters into s. Sums and maxes
// commute, so the merged totals are independent of worker scheduling.
func (s *Stats) mergeNodeStats(o *Stats) {
	s.CIAccepted += o.CIAccepted
	s.CIRejected += o.CIRejected
	s.CtxDependent += o.CtxDependent
	s.CharsStepped += o.CharsStepped
	s.CharsTotal += o.CharsTotal
	if o.MaxCtxPerNode > s.MaxCtxPerNode {
		s.MaxCtxPerNode = o.MaxCtxPerNode
	}
}

// selectKind picks the storage format by popcount (§3.1 adaptive storage):
// a sorted id list costs 4 bytes per token, a word bitmask costs
// WordsFor(vocab)*8 bytes regardless, so lists win below listCap ids.
func selectKind(numAcc, numRej, vocab int) StorageKind {
	listCap := 2 * bitset.WordsFor(vocab)
	switch {
	case numAcc <= numRej && numAcc <= listCap:
		return AcceptList
	case numRej <= listCap:
		return RejectList
	default:
		return WordMask
	}
}

// makeNodeMask builds a node mask from flat accept/reject/ctx id lists. The
// input slices are taken over; only the one list that is actually stored
// gets sorted by id (sorting the discarded side would dominate build time
// on dense grammars, where the accept list runs to the whole vocabulary).
func makeNodeMask(acc, rej, ctx []int32, vocab int) NodeMask {
	slices.Sort(ctx)
	nm := NodeMask{numAccepted: len(acc), numRejected: len(rej), Ctx: ctx}

	switch nm.Kind = selectKind(len(acc), len(rej), vocab); nm.Kind {
	case AcceptList:
		slices.Sort(acc)
		nm.Tokens = acc
	case RejectList:
		slices.Sort(rej)
		nm.Tokens = rej
	default:
		b := bitset.New(vocab)
		b.SetList(acc)
		nm.Words = b.Words()
	}
	return nm
}

func (nm *NodeMask) storageBytes() int64 {
	n := int64(4 * len(nm.Tokens))
	n += int64(8 * len(nm.Words))
	n += int64(4 * len(nm.Ctx))
	return n
}

// NumAccepted returns the size of the node's context-independent accept set.
func (nm *NodeMask) NumAccepted() int { return nm.numAccepted }

// Stats returns construction statistics.
func (c *Cache) Stats() Stats { return c.stats }

// FromParts reconstructs a cache from serialized components (the node masks
// and the recorded build statistics), rebuilding the derived runtime state:
// the identity mask, per-node counters, and the canonical word masks.
func FromParts(p *pda.PDA, tok *tokenizer.Tokenizer, nodes []NodeMask, stats Stats) *Cache {
	c := &Cache{P: p, Tok: tok, Vocab: tok.VocabSize(), Nodes: nodes, stats: stats}
	c.buildAllWords()
	regular := len(tok.SortedRegularIDs())
	for i := range c.Nodes {
		nm := &c.Nodes[i]
		switch nm.Kind {
		case AcceptList:
			nm.numAccepted = len(nm.Tokens)
		case RejectList:
			nm.numAccepted = regular - len(nm.Tokens) - len(nm.Ctx)
		case WordMask:
			nm.numAccepted = 0
			for _, w := range nm.Words {
				nm.numAccepted += bits.OnesCount64(w)
			}
		}
		nm.numRejected = regular - nm.numAccepted - len(nm.Ctx)
	}
	c.stats.CanonicalBytes = 0
	c.materializeCanonical(0)
	return c
}

// WireMask is the serializable form of a NodeMask (gob needs exported
// fields only; the private counters are carried in the aggregate Stats).
// The Bits field name is kept from the previous wire version; it carries
// Words for WordMask nodes.
type WireMask struct {
	Kind   StorageKind
	Tokens []int32
	Bits   []uint64
	Ctx    []int32
	// AcceptCount is the popcount of the node's context-independent accept
	// set — redundant with the lists, carried so the loader can verify the
	// storage kind and token lists agree (a flipped Kind silently inverts
	// mask semantics; bounds checks alone cannot catch it).
	AcceptCount int32
}

// ToWire converts node masks for serialization.
func (c *Cache) ToWire() []WireMask {
	out := make([]WireMask, len(c.Nodes))
	for i, nm := range c.Nodes {
		out[i] = WireMask{Kind: nm.Kind, Tokens: nm.Tokens, Bits: nm.Words, Ctx: nm.Ctx, AcceptCount: int32(nm.numAccepted)}
	}
	return out
}

// FromWire converts serialized masks back. The caller (FromParts) rebuilds
// the derived counters and canonical masks.
func FromWire(ws []WireMask) []NodeMask {
	out := make([]NodeMask, len(ws))
	for i, w := range ws {
		out[i] = NodeMask{Kind: w.Kind, Tokens: w.Tokens, Words: w.Bits, Ctx: w.Ctx}
	}
	return out
}
