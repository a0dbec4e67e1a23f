package main

// The one file that imports xgrammar/internal/...: everything the benchmark
// needs from below the public API is reached through the functions here, so
// a later move of an internal package touches this file only.

import (
	"fmt"
	"net/http"
	"time"

	"xgrammar"
	"xgrammar/internal/baselines"
	"xgrammar/internal/bitset"
	"xgrammar/internal/builtin"
	"xgrammar/internal/corpus"
	"xgrammar/internal/ebnf"
	"xgrammar/internal/grammar"
	"xgrammar/internal/jsonschema"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/obs"
	"xgrammar/internal/pda"
	"xgrammar/internal/regexconv"
	"xgrammar/internal/server"
	"xgrammar/internal/workload"
)

// trainTokenizer trains the stock BPE tokenizer at the benchmark's vocabulary
// on the corpus xgrammar.DefaultTokenizer uses (192 bytes per token), but
// without its per-process cache: every run of -repeat pays for its own
// training, as a single run does.
func trainTokenizer() *xgrammar.TokenizerInfo {
	return xgrammar.TrainTokenizer(corpus.Default(benchVocab*192), benchVocab)
}

func jsonPiece(seed int64) string   { return workload.JSONDocs(1, seed)[0] }
func xmlPiece(seed int64) string    { return workload.XMLDocs(1, seed)[0] }
func pythonPiece(seed int64) string { return workload.PythonPrograms(1, seed)[0] }

// parseSpec runs the front end a grammar spec selects and names the layer.
func parseSpec(spec xgrammar.GrammarSpec) (g *grammar.Grammar, layer string, err error) {
	switch spec.Kind {
	case xgrammar.KindJSONSchema:
		g, _, err = jsonschema.CompileFull([]byte(spec.Source), jsonschema.Options{})
		return g, "jsonschema.convert_ms", err
	case xgrammar.KindEBNF:
		g, err = ebnf.Parse(spec.Source)
		return g, "ebnf.parse_ms", err
	case xgrammar.KindRegex:
		e, err := regexconv.Convert(spec.Source)
		if err != nil {
			return nil, "", err
		}
		return &grammar.Grammar{Rules: []grammar.Rule{{Name: "root", Body: e}}}, "regexconv.convert_ms", nil
	case xgrammar.KindBuiltin:
		switch spec.Source {
		case "json":
			return builtin.JSON(), "", nil
		case "xml":
			return builtin.XML(), "", nil
		case "python":
			return builtin.PythonDSL(), "", nil
		}
	}
	return nil, "", fmt.Errorf("bench: unsupported grammar spec %s/%q", spec.Kind, spec.Source)
}

// compileLayers is one grammar's compile split at the layer boundaries
// Compiler.Compile* crosses: front end, PDA construction, mask-cache build.
type compileLayers struct {
	frontLayer string // per-layer metric the front-end time belongs to; "" for builtins
	front      time.Duration
	pda        time.Duration
	build      time.Duration
	nodes      int
	edges      int
	cache      maskcache.Stats
}

func compileByLayer(info *xgrammar.TokenizerInfo, spec xgrammar.GrammarSpec) (compileLayers, error) {
	var cl compileLayers
	t0 := time.Now()
	g, layer, err := parseSpec(spec)
	if err != nil {
		return cl, err
	}
	t1 := time.Now()
	p, err := pda.Compile(g, pda.AllOptimizations)
	if err != nil {
		return cl, err
	}
	t2 := time.Now()
	c := maskcache.Build(p, info.Raw(), maskcache.Options{ContextExpansion: true})
	t3 := time.Now()
	cl = compileLayers{frontLayer: layer, front: t1.Sub(t0), pda: t2.Sub(t1), build: t3.Sub(t2),
		nodes: p.NumNodes(), edges: p.NumEdges(), cache: c.Stats()}
	return cl, nil
}

// oracle is an independent mask source: a llama.cpp-style interpreter over
// the unoptimised PDA that checks the whole vocabulary token by token, with
// no cache and no structure optimisation in common with the engine.
type oracle struct {
	sess baselines.Session
	bs   *bitset.Bitset
}

func newOracle(info *xgrammar.TokenizerInfo, spec xgrammar.GrammarSpec) (*oracle, error) {
	g, _, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	p, err := pda.Compile(g, pda.Options{})
	if err != nil {
		return nil, err
	}
	return &oracle{
		sess: baselines.NewLlamaCpp(p, info.Raw()).NewSession(),
		bs:   bitset.New(info.VocabSize()),
	}, nil
}

func (o *oracle) mask() []uint64 {
	o.sess.FillMask(o.bs)
	return o.bs.Words()
}

func (o *oracle) accept(id int32) error { return o.sess.Accept(id) }

// gateway is an in-process server.Server with its tracer.
type gateway struct {
	http.Handler
	srv *server.Server
}

// newGateway builds the gateway the way cmd/xgserve does, with model as the
// default backend. traced selects obs.New(obs.Config{}) or a disabled tracer.
func newGateway(eng *xgrammar.Engine, model xgrammar.ModelBackend, gpuStep time.Duration, traced bool) *gateway {
	srv := server.New(server.Config{
		Engine:    eng,
		MaxTokens: maxRequestTokens,
		GPUStep:   gpuStep,
		Backends:  map[string]xgrammar.ModelBackend{"": model},
		Tracer:    obs.New(obs.Config{Disabled: !traced}),
	})
	return &gateway{Handler: srv, srv: srv}
}

// Close stops the gateway's decode loop.
func (g *gateway) Close() { g.srv.Close() }

// gatewayMetrics is the part of GET /metrics (JSON) the benchmark reads.
type gatewayMetrics = server.Metrics

// stageTotals is one obs stage's histogram sum and count.
type stageTotals struct {
	seconds float64
	count   float64
}

// parseStageTotals reads the per-stage, whole-request and batch-depth
// histograms out of a Prometheus-format /metrics scrape. The whole request
// is keyed "total"; the per-round live-batch depth "depth" (its sum is in
// sequences, not seconds).
func parseStageTotals(text string) (map[string]stageTotals, error) {
	fams, err := obs.ParseProm(text)
	if err != nil {
		return nil, err
	}
	out := map[string]stageTotals{}
	read := func(family string, key func(obs.PromSample) string) {
		fam := fams[family]
		if fam == nil {
			return
		}
		for _, s := range fam.Samples {
			st := out[key(s)]
			switch s.Name {
			case family + "_sum":
				st.seconds = s.Value
			case family + "_count":
				st.count = s.Value
			default:
				continue
			}
			out[key(s)] = st
		}
	}
	read("xgserve_stage_duration_seconds", func(s obs.PromSample) string { return s.Labels["stage"] })
	read("xgserve_request_duration_seconds", func(obs.PromSample) string { return "total" })
	read("xgserve_queue_depth", func(obs.PromSample) string { return "depth" })
	return out, nil
}
