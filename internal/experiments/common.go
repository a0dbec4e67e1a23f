package experiments

import (
	"time"

	"xgrammar/internal/backend"
	"xgrammar/internal/backend/simllm"
	"xgrammar/internal/baselines"
	"xgrammar/internal/bitset"
	"xgrammar/internal/builtin"
	"xgrammar/internal/grammar"
	"xgrammar/internal/jsonschema"
	"xgrammar/internal/llmsim"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/pda"
	"xgrammar/internal/tokenizer"
	"xgrammar/internal/workload"
)

// Suite holds the shared configuration and memoized artifacts for all
// experiments. Quick mode shrinks the vocabulary and workloads so the whole
// suite runs in seconds (used by tests); full mode approximates the paper's
// scale.
type Suite struct {
	Vocab        int
	NumSchemas   int
	NumDocs      int
	SlowStepCap  int // max measured steps for full-vocabulary-scan engines
	FastStepCap  int
	BatchSizes   []int
	PromptTokens int
	Quick        bool

	tok *tokenizer.Tokenizer
	// memoized compiled artifacts
	pdas   map[string]*pda.PDA
	caches map[string]*maskcache.Cache
	inits  map[string]time.Duration
}

// NewSuite returns a suite configuration.
func NewSuite(quick bool) *Suite {
	s := &Suite{
		Vocab:        32000,
		NumSchemas:   8,
		NumDocs:      20,
		SlowStepCap:  60,
		FastStepCap:  4000,
		BatchSizes:   []int{1, 16, 32},
		PromptTokens: 139,
		Quick:        quick,
		pdas:         map[string]*pda.PDA{},
		caches:       map[string]*maskcache.Cache{},
		inits:        map[string]time.Duration{},
	}
	if quick {
		s.Vocab = 2000
		s.NumSchemas = 2
		s.NumDocs = 4
		s.SlowStepCap = 20
		s.FastStepCap = 300
		s.BatchSizes = []int{1, 4}
	}
	return s
}

// Tok returns the suite tokenizer (trained once).
func (s *Suite) Tok() *tokenizer.Tokenizer {
	if s.tok == nil {
		s.tok = tokenizer.BuildDefault(s.Vocab)
	}
	return s.tok
}

// Model returns the model backend experiments decode against: the
// teacher-forced llmsim simulation timed by the given hardware profile —
// the only backend whose Timing models the paper's hardware.
func (s *Suite) Model(profile llmsim.Profile) backend.Backend {
	return simllm.NewTeacher(s.Tok(), profile, simllm.TeacherOptions{})
}

// PDA compiles and memoizes a grammar under the given options.
func (s *Suite) PDA(key string, g *grammar.Grammar, opts pda.Options) *pda.PDA {
	if p, ok := s.pdas[key]; ok {
		return p
	}
	p, err := pda.Compile(g, opts)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	s.pdas[key] = p
	return p
}

// Cache builds and memoizes a mask cache, recording its build time.
func (s *Suite) Cache(key string, p *pda.PDA, opts maskcache.Options) *maskcache.Cache {
	if c, ok := s.caches[key]; ok {
		return c
	}
	t0 := time.Now()
	c := maskcache.Build(p, s.Tok(), opts)
	s.inits[key] = time.Since(t0)
	s.caches[key] = c
	return c
}

// InitTime returns the recorded preprocessing time for a cache key.
func (s *Suite) InitTime(key string) time.Duration { return s.inits[key] }

// XGrammarJSON returns the fully-optimized XGrammar backend for the
// unconstrained-JSON CFG, with its preprocessing time.
func (s *Suite) XGrammarJSON() (*baselines.XGBackend, time.Duration) {
	p := s.PDA("json-opt", builtin.JSON(), pda.AllOptimizations)
	c := s.Cache("json-opt", p, maskcache.Options{ContextExpansion: true})
	return baselines.NewXGBackend(p, c, s.Tok(), "xgrammar"), s.InitTime("json-opt")
}

// SchemaArtifacts holds one schema task's compiled engines.
type SchemaArtifacts struct {
	Task     workload.SchemaTask
	Grammar  *grammar.Grammar
	PDA      *pda.PDA
	XG       *baselines.XGBackend
	XGInit   time.Duration
	FSM      *baselines.RegexFSM
	FSMInit  time.Duration
	CharWalk *baselines.CharWalk
	LlamaCpp *baselines.LlamaCpp
}

// Schemas compiles the schema workload once for all backends.
func (s *Suite) Schemas() []*SchemaArtifacts {
	tasks := workload.SchemaTasks(s.NumSchemas, 2025)
	out := make([]*SchemaArtifacts, len(tasks))
	for i, task := range tasks {
		g, err := jsonschema.Compile(task.Schema, jsonschema.Options{})
		if err != nil {
			panic("experiments: " + err.Error())
		}
		key := "schema-" + task.Name
		p := s.PDA(key, g, pda.AllOptimizations)
		cache := s.Cache(key, p, maskcache.Options{ContextExpansion: true})
		art := &SchemaArtifacts{
			Task:     task,
			Grammar:  g,
			PDA:      p,
			XG:       baselines.NewXGBackend(p, cache, s.Tok(), "xgrammar"),
			XGInit:   s.InitTime(key),
			LlamaCpp: baselines.NewLlamaCpp(p, s.Tok()),
		}
		t0 := time.Now()
		if fsm, err := baselines.NewRegexFSM(g, s.Tok()); err == nil {
			fsm.PrecomputeAll()
			art.FSM = fsm
			art.FSMInit = time.Since(t0)
		}
		if cw, err := baselines.NewCharWalk(g, s.Tok()); err == nil {
			art.CharWalk = cw
		}
		out[i] = art
	}
	return out
}

// measureMaskLatency replays documents through a backend, timing FillMask at
// every step. Returns the mean per-token latency and the steps measured.
func (s *Suite) measureMaskLatency(b baselines.Backend, docs []string, stepCap int) (time.Duration, int) {
	tok := s.Tok()
	mask := bitset.New(tok.VocabSize())
	var total time.Duration
	steps := 0
	for _, doc := range docs {
		if steps >= stepCap {
			break
		}
		sess := b.NewSession()
		ids := tok.Encode(doc)
		ids = append(ids, tokenizer.EosID)
		for _, id := range ids {
			if steps >= stepCap {
				break
			}
			t0 := time.Now()
			sess.FillMask(mask)
			total += time.Since(t0)
			steps++
			if err := sess.Accept(id); err != nil {
				panic("experiments: replay: " + err.Error())
			}
		}
	}
	if steps == 0 {
		return 0, 0
	}
	return total / time.Duration(steps), steps
}

// cfgTask describes one CFG workload for Figure 9 / Table 3.
type cfgTask struct {
	name    string
	grammar *grammar.Grammar
	docs    []string
}

func (s *Suite) cfgTasks() []cfgTask {
	return []cfgTask{
		{"CFG (JSON)", builtin.JSON(), workload.JSONDocs(s.NumDocs, 7)},
		{"CFG (XML)", builtin.XML(), workload.XMLDocs(s.NumDocs, 8)},
		{"CFG (Python DSL)", builtin.PythonDSL(), workload.PythonPrograms(s.NumDocs, 9)},
	}
}
