package main

// The seeded generator the benchmark owns. The grammar registry is fixed — a
// deployment's registered schemas do not change between runs, and the exact
// compiled-size metric must read the same on every seed — while everything
// that is traffic derives from -seed: document contents, composed lengths,
// templated prefixes, rollback points and request order. The program under
// test receives only what this file generates.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"xgrammar"
)

// workloadInfo names one workload, records why it is in the set, and says
// which load loop drives it.
type workloadInfo struct {
	name string
	why  string
	// batch: sixteen lockstep sessions; cold: every request compiles its
	// grammar; gateway: HTTP clients against a listening server. None of
	// the three is the single-session loop.
	batch, cold, gateway bool
	rollback             bool          // the single-session loop retracts every rollbackEvery tokens
	gpuStep              time.Duration // gateway: simulated forward pass per decode round
}

// scripted reports whether documents are replayed from scripts recorded
// with the batcher's jump-forward insertions, not stepped token by token.
func (w workloadInfo) scripted() bool { return w.batch || w.gateway }

// The six workloads. Each stresses a different layer, and for every layer
// optimisation one of them exercises the mechanism while another bypasses it
// (see README.md, "Which layer moves which metric").
var workloads = []workloadInfo{
	{name: "decode_schema",
		why: "JSON-Schema function-calling shape: one session at a time, shallow stacks, mask-cache fill does most of the work"},
	{name: "decode_cfg", rollback: true,
		why: "recursive JSON/XML/Python CFGs with rollback: deep stacks and context-dependent checks, matcher writes beside reads"},
	{name: "decode_batch", batch: true,
		why: "16 sessions in lockstep through Engine.FillBatchInto as batcher rounds do: isolates the serve layer the single-session loops bypass"},
	{name: "compile_cold", cold: true,
		why: "first request for an uncached grammar: compile then decode, so work moved from decode time to compile time shows as cost"},
	{name: "gateway_saturated", gateway: true,
		why: "HTTP/SSE over loopback with no GPU pacing: every gateway layer is on the CPU-bound critical path"},
	{name: "gateway_paced", gateway: true, gpuStep: 2 * time.Millisecond,
		why: "same traffic under a 2 ms GPU step: overlapped fill must not move TPOT, anything serial after the timer does"},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// registrySeed fixes the shapes of the generated schemas.
const registrySeed = 20250928

// Document sizing. Requests are composed to a common length so request-level
// percentiles measure the engine, not the seed's luck with document lengths:
// in-process documents to a count of reference tokens, gateway documents to
// a count of decode rounds (jump-forward makes forced text free, so a
// schema document needs several times the bytes of a free-form one).
const (
	decodeDocTokens       = 64
	coldDocTokens         = 256 // compile_cold: long enough that the decode after a compile is not all cache misses
	gatewayDocRounds      = 64
	decodeDocsPerGrammar  = 48
	coldDocsPerGrammar    = 12 // a 10 s pass reaches about nine
	gatewayDocsPerGrammar = 8  // two templates x (three documents + one prefixed variant)
	rollbackEvery         = 32
	rollbackDepth         = 8
)

// grammarDef is one registered grammar and the generator of documents valid
// under it: a document is open + pieces joined by sep + close.
type grammarDef struct {
	name  string
	class string // "schema", "cfg", "regex", "ebnf": the oracle samples each class
	spec  xgrammar.GrammarSpec
	open  string
	sep   string
	close string
	// single marks grammars whose document is exactly one piece (regexes).
	single bool
	piece  func(rng *rand.Rand) string
	// fits, when set, says whether piece may follow doc; compose redraws a
	// piece that does not fit.
	fits func(doc, piece string) bool
}

// draw returns the grammar's next piece after doc.
func (g *grammarDef) draw(rng *rand.Rand, doc string) string {
	p := g.piece(rng)
	for tries := 0; g.fits != nil && !g.fits(doc, p) && tries < 256; tries++ {
		p = g.piece(rng)
	}
	return p
}

// maxPythonBlocks caps the compound statements (if/for headers) of one
// Python-DSL document. The DSL ignores indentation, so a block once opened
// never closes: every header adds a live parse stack for the rest of the
// document and per-token cost grows with each. Uncapped, composed documents
// ranged from 3 to 136 us per decode round depending on the seed.
const maxPythonBlocks = 2

var keyPool = []string{
	"name", "age", "email", "city", "country", "id", "kind", "value", "tags",
	"price", "quantity", "status", "created", "title", "author", "enabled",
	"score", "rating", "phone", "state", "currency", "amount", "unit", "category",
}

var wordPool = []string{
	"alpha", "beta", "gamma", "delta", "omega", "red", "green", "blue",
	"small", "large", "fast", "slow", "new york", "paris", "tokyo",
	"pending", "active", "closed", "hello world", "foo", "bar", "baz",
}

type shapeKind uint8

const (
	kString shapeKind = iota
	kInteger
	kBoundedInt
	kBoolean
	kEnum
	kNumber
	kArray
	kObject
)

// shape is a JSON Schema skeleton: generated once from registrySeed, rendered
// to schema text, and instantiated with seeded values per document.
type shape struct {
	kind   shapeKind
	lo, hi int64
	enum   []string
	item   *shape
	props  []shapeProp
}

type shapeProp struct {
	key      string
	val      *shape
	required bool
}

func genShape(rng *rand.Rand, depth int) *shape {
	kinds := 8
	if depth >= 2 {
		kinds = 6 // scalars only
	}
	switch k := shapeKind(rng.Intn(kinds)); k {
	case kBoundedInt:
		lo := int64(rng.Intn(100))
		return &shape{kind: k, lo: lo, hi: lo + 1 + int64(rng.Intn(1000))}
	case kEnum:
		s := &shape{kind: k}
		for _, i := range rng.Perm(len(wordPool))[:2+rng.Intn(3)] {
			s.enum = append(s.enum, wordPool[i])
		}
		return s
	case kArray:
		return &shape{kind: k, item: genShape(rng, depth+1)}
	case kObject:
		return genObject(rng, depth+1)
	default:
		return &shape{kind: k}
	}
}

func genObject(rng *rand.Rand, depth int) *shape {
	s := &shape{kind: kObject}
	for _, i := range rng.Perm(len(keyPool))[:2+rng.Intn(3)] {
		s.props = append(s.props, shapeProp{key: keyPool[i], val: genShape(rng, depth), required: rng.Intn(10) < 7})
	}
	return s
}

func (s *shape) schema(sb *strings.Builder) {
	switch s.kind {
	case kString:
		sb.WriteString(`{"type": "string"}`)
	case kInteger:
		sb.WriteString(`{"type": "integer"}`)
	case kBoundedInt:
		fmt.Fprintf(sb, `{"type": "integer", "minimum": %d, "maximum": %d}`, s.lo, s.hi)
	case kBoolean:
		sb.WriteString(`{"type": "boolean"}`)
	case kEnum:
		sb.WriteString(`{"enum": [`)
		for i, e := range s.enum {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(sb, "%q", e)
		}
		sb.WriteString(`]}`)
	case kNumber:
		sb.WriteString(`{"type": "number"}`)
	case kArray:
		sb.WriteString(`{"type": "array", "items": `)
		s.item.schema(sb)
		sb.WriteString(`, "minItems": 1, "maxItems": 4}`)
	case kObject:
		sb.WriteString(`{"type": "object", "properties": {`)
		var required []string
		for i, p := range s.props {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(sb, "%q: ", p.key)
			p.val.schema(sb)
			if p.required {
				required = append(required, fmt.Sprintf("%q", p.key))
			}
		}
		fmt.Fprintf(sb, `}, "required": [%s]}`, strings.Join(required, ", "))
	}
}

func (s *shape) instance(sb *strings.Builder, rng *rand.Rand) {
	switch s.kind {
	case kString:
		fmt.Fprintf(sb, "%q", wordPool[rng.Intn(len(wordPool))])
	case kInteger:
		fmt.Fprintf(sb, "%d", rng.Intn(100000)-50000)
	case kBoundedInt:
		fmt.Fprintf(sb, "%d", s.lo+rng.Int63n(s.hi-s.lo+1))
	case kBoolean:
		sb.WriteString([]string{"true", "false"}[rng.Intn(2)])
	case kEnum:
		fmt.Fprintf(sb, "%q", s.enum[rng.Intn(len(s.enum))])
	case kNumber:
		fmt.Fprintf(sb, "%.2f", rng.Float64()*100)
	case kArray:
		sb.WriteByte('[')
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			s.item.instance(sb, rng)
		}
		sb.WriteByte(']')
	case kObject:
		sb.WriteByte('{')
		first := true
		for _, p := range s.props {
			if !p.required && rng.Intn(2) == 0 {
				continue
			}
			if !first {
				sb.WriteString(", ")
			}
			first = false
			fmt.Fprintf(sb, "%q: ", p.key)
			p.val.instance(sb, rng)
		}
		sb.WriteByte('}')
	}
}

const (
	numSchemas = 7

	exprGrammar = `root ::= term ( " + " term )*
term ::= factor ( " * " factor )*
factor ::= [0-9]+ | "(" root ")"
`
	csvGrammar = `root ::= row ( "\n" row )*
row ::= cell ( "," cell )*
cell ::= [a-z0-9 ]+
`
	timestampRegex = `^[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z$`
	emailRegex     = `^[a-z]{3,12}@[a-z]{3,10}\.(com|org|net)$`
)

func randChars(rng *rand.Rand, alphabet string, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// registry returns the fixed grammar set every workload draws from: seven
// array-of-object schemas (a batch of function calls), the three builtin
// CFGs, two regexes and two small EBNF grammars. Every workload's set has an
// odd number of grammars: request times cluster by grammar, and with an even
// number the median request would sit on the edge between two clusters and
// flip from run to run.
func registry() []grammarDef {
	const lower, digits = "abcdefghijklmnopqrstuvwxyz", "0123456789"
	rng := rand.New(rand.NewSource(registrySeed))
	var out []grammarDef
	for i := 0; i < numSchemas; i++ {
		obj := genObject(rng, 1)
		var sb strings.Builder
		sb.WriteString(`{"type": "array", "items": `)
		obj.schema(&sb)
		sb.WriteString(`, "minItems": 1}`)
		out = append(out, grammarDef{
			name: fmt.Sprintf("schema_%02d", i), class: "schema",
			spec: xgrammar.GrammarSpec{Kind: xgrammar.KindJSONSchema, Source: sb.String()},
			open: "[", sep: ", ", close: "]",
			piece: func(rng *rand.Rand) string {
				var sb strings.Builder
				obj.instance(&sb, rng)
				return sb.String()
			},
		})
	}
	builtin := func(name string) xgrammar.GrammarSpec {
		return xgrammar.GrammarSpec{Kind: xgrammar.KindBuiltin, Source: name}
	}
	out = append(out,
		grammarDef{name: "json", class: "cfg", spec: builtin("json"), open: "[", sep: ", ", close: "]",
			piece: func(rng *rand.Rand) string { return jsonPiece(rng.Int63()) }},
		grammarDef{name: "xml", class: "cfg", spec: builtin("xml"), open: "<batch>", close: "</batch>",
			piece: func(rng *rand.Rand) string { return xmlPiece(rng.Int63()) }},
		grammarDef{name: "python", class: "cfg", spec: builtin("python"),
			piece: func(rng *rand.Rand) string { return pythonPiece(rng.Int63()) },
			fits: func(doc, piece string) bool {
				return strings.Count(doc, ":\n")+strings.Count(piece, ":\n") <= maxPythonBlocks
			}},
		grammarDef{name: "regex_timestamp", class: "regex", single: true,
			spec: xgrammar.GrammarSpec{Kind: xgrammar.KindRegex, Source: timestampRegex},
			piece: func(rng *rand.Rand) string {
				return fmt.Sprintf("%04d-%02d-%02dT%02d:%02d:%02dZ", 1970+rng.Intn(80), 1+rng.Intn(12),
					1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60))
			}},
		grammarDef{name: "regex_email", class: "regex", single: true,
			spec: xgrammar.GrammarSpec{Kind: xgrammar.KindRegex, Source: emailRegex},
			piece: func(rng *rand.Rand) string {
				return randChars(rng, lower, 3+rng.Intn(10)) + "@" + randChars(rng, lower, 3+rng.Intn(8)) +
					"." + []string{"com", "org", "net"}[rng.Intn(3)]
			}},
		grammarDef{name: "ebnf_expr", class: "ebnf", sep: " + ",
			spec: xgrammar.GrammarSpec{Kind: xgrammar.KindEBNF, Source: exprGrammar},
			piece: func(rng *rand.Rand) string {
				a, b := randChars(rng, digits, 1+rng.Intn(4)), randChars(rng, digits, 1+rng.Intn(4))
				if rng.Intn(2) == 0 {
					return a + " * " + b
				}
				return "(" + a + " + " + b + ")"
			}},
		grammarDef{name: "ebnf_csv", class: "ebnf", sep: "\n",
			spec: xgrammar.GrammarSpec{Kind: xgrammar.KindEBNF, Source: csvGrammar},
			piece: func(rng *rand.Rand) string {
				cells := make([]string, 2+rng.Intn(3))
				for i := range cells {
					cells[i] = randChars(rng, lower+digits, 1+rng.Intn(8))
				}
				return strings.Join(cells, ",")
			}},
	)
	return out
}

// grammarSet selects a workload's grammars from the registry.
func grammarSet(workload string) []grammarDef {
	reg := registry()
	pick := func(names ...string) []grammarDef {
		var out []grammarDef
		for _, n := range names {
			for _, g := range reg {
				if g.name == n {
					out = append(out, g)
				}
			}
		}
		return out
	}
	switch workload {
	case "decode_schema":
		return reg[:numSchemas]
	case "decode_cfg":
		return pick("json", "xml", "python")
	case "compile_cold":
		// Python is left to decode_cfg and the gateways: at 0.25 s a compile
		// it would take a fifth of the pass and leave too few samples.
		return append(reg[:numSchemas:numSchemas], pick("json", "xml", "regex_timestamp", "regex_email", "ebnf_expr", "ebnf_csv")...)
	default: // decode_batch and the gateways: the served mix
		return append(reg[:4:4], pick("json", "xml", "python")...)
	}
}

// document is one request's reference output.
type document struct {
	grammar int    // index into the workload's grammar set
	text    string // the bytes the decode must reproduce
	prefix  string // forced prefix the request carries; "" for none
	// rollbackPhase offsets decode_cfg's every-32-tokens rollback so seeds
	// retract at different grammar positions.
	rollbackPhase int
}

// traffic is everything a workload feeds the program under test.
type traffic struct {
	grammars []grammarDef
	docs     []document
	order    []int // request order over docs, cycled by the load loop
	hash     uint64
}

// render joins pieces into a document of g.
func (g *grammarDef) render(pieces []string) string {
	return g.open + strings.Join(pieces, g.sep) + g.close
}

// extend appends fresh pieces to pieces until the rendered document measures
// at least target under size, redrawing (a few times) a piece that would
// overshoot the target by more than a quarter, so documents of one workload
// stay close in length. It always adds at least one piece.
func (g *grammarDef) extend(rng *rand.Rand, size func(doc string) int, pieces []string, target int) []string {
	for retries := 0; ; {
		p := g.draw(rng, strings.Join(pieces, g.sep))
		n := size(g.render(append(pieces, p)))
		if n > target+target/4 && retries < 8 {
			retries++
			continue
		}
		pieces = append(pieces, p)
		if n >= target {
			return pieces
		}
	}
}

// compose builds one document measuring at least target from head (a
// template shared between documents) followed by fresh pieces. It returns
// the text and the byte length of the templated head.
func compose(g *grammarDef, rng *rand.Rand, size func(doc string) int, head []string, target int) (string, int) {
	if g.single {
		return g.piece(rng), 0
	}
	headLen := 0
	if len(head) > 0 {
		headLen = len(g.open + strings.Join(head, g.sep) + g.sep)
	}
	return g.render(g.extend(rng, size, head[:len(head):len(head)], target)), headLen
}

// buildTraffic generates a workload's inputs over grammars from seed.
// size(gi, doc) measures a document of grammar gi: reference tokens for the
// in-process workloads, decode rounds for the gateways.
func buildTraffic(w workloadInfo, seed int64, grammars []grammarDef, size func(gi int, doc string) int) *traffic {
	rng := rand.New(rand.NewSource(seed))
	tr := &traffic{grammars: grammars}
	nG := len(tr.grammars)
	perGrammar, docTokens := decodeDocsPerGrammar, decodeDocTokens
	switch {
	case w.gateway:
		perGrammar = gatewayDocsPerGrammar
	case w.cold:
		perGrammar, docTokens = coldDocsPerGrammar, coldDocTokens
	}
	for gi := range tr.grammars {
		g := &tr.grammars[gi]
		size := func(doc string) int { return size(gi, doc) }
		if !w.gateway {
			for d := 0; d < perGrammar; d++ {
				text, _ := compose(g, rng, size, nil, docTokens)
				tr.docs = append(tr.docs, document{grammar: gi, text: text, rollbackPhase: rng.Intn(rollbackEvery)})
			}
			continue
		}
		// Gateway: two templates per grammar and three documents per
		// template, the first of which is also served with the templated
		// head — about three quarters of the document — as a forced prefix.
		// So a quarter of the requests carry a prefix, shared with two
		// sibling documents. (Not half: with two equal modes the median
		// request time would flip between them from run to run.)
		for t := 0; t < 2; t++ {
			head := g.extend(rng, size, nil, gatewayDocRounds*3/4)
			for d := 0; d < 3; d++ {
				text, headLen := compose(g, rng, size, head, gatewayDocRounds)
				tr.docs = append(tr.docs, document{grammar: gi, text: text})
				if d == 0 {
					tr.docs = append(tr.docs, document{grammar: gi, text: text, prefix: text[:headLen]})
				}
			}
		}
	}
	// Order: rounds that visit every grammar once, so each grammar gets an
	// equal request share however long the pass runs. compile_cold keeps the
	// registry order fixed (the set and its order are the workload); the
	// others permute each round from the seed. Gateway rounds stagger the
	// grammars' documents so every round has its share of prefixed requests.
	for d := 0; d < perGrammar; d++ {
		perm := rng.Perm(nG)
		for i := 0; i < nG; i++ {
			gi := perm[i]
			if w.cold {
				gi = i
			}
			j := d
			if w.gateway {
				j = (d + gi) % perGrammar
			}
			tr.order = append(tr.order, gi*perGrammar+j)
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00", w.name)
	for _, g := range tr.grammars {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00", g.name, g.spec.Kind, g.spec.Source)
	}
	for _, d := range tr.docs {
		fmt.Fprintf(h, "%d\x00%s\x00%s\x00%d\x00", d.grammar, d.text, d.prefix, d.rollbackPhase)
	}
	fmt.Fprintf(h, "%v", tr.order)
	tr.hash = h.Sum64()
	return tr
}
