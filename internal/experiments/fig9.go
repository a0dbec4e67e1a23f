package experiments

import (
	"fmt"
	"time"

	"xgrammar/internal/baselines"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/pda"
)

// Fig9 reproduces Figure 9: per-token mask generation latency (µs) for the
// four tasks (JSON Schema, CFG JSON, CFG XML, CFG Python DSL) across the
// four engines. lm-format-enforcer supports only the regex-representable
// JSON Schema task, as in the paper.
func (s *Suite) Fig9() *Table {
	t := &Table{
		ID:     "fig9",
		Title:  "Per-token mask generation latency (us/token)",
		Paper:  "XGrammar 36/36/52/191us; best baseline 125us (schema, Outlines) and 4.7-42.6ms (CFGs); up to 3x (schema) and >100x (CFG) speedups",
		Header: []string{"engine", "JSON Schema", "CFG (JSON)", "CFG (XML)", "CFG (Python DSL)"},
	}

	type cell struct {
		lat   time.Duration
		steps int
		ok    bool
	}
	engines := []string{"xgrammar", "outlines", "llama.cpp-grammar", "lm-format-enforcer"}
	results := map[string]map[string]cell{}
	for _, e := range engines {
		results[e] = map[string]cell{}
	}

	// JSON Schema task: per-schema grammars, regex engines applicable.
	schemas := s.Schemas()
	accum := func(engine, task string, b baselines.Backend, docs []string, cap int) {
		lat, steps := s.measureMaskLatency(b, docs, cap)
		c := results[engine][task]
		c.lat += lat * time.Duration(steps)
		c.steps += steps
		c.ok = true
		results[engine][task] = c
	}
	for _, art := range schemas {
		docs := []string{art.Task.Instance}
		accum("xgrammar", "JSON Schema", art.XG, docs, s.FastStepCap)
		if art.FSM != nil {
			accum("outlines", "JSON Schema", art.FSM, docs, s.FastStepCap)
		}
		if art.CharWalk != nil {
			accum("lm-format-enforcer", "JSON Schema", art.CharWalk, docs, s.SlowStepCap)
		}
		accum("llama.cpp-grammar", "JSON Schema", art.LlamaCpp, docs, s.SlowStepCap)
	}

	// CFG tasks.
	for _, task := range s.cfgTasks() {
		key := "fig9-" + task.name
		pOpt := s.PDA(key+"-opt", task.grammar, pda.AllOptimizations)
		cache := s.Cache(key+"-opt", pOpt, maskcache.Options{ContextExpansion: true})
		xg := baselines.NewXGBackend(pOpt, cache, s.Tok(), "xgrammar")
		outl := baselines.NewOutlinesCFG(pOpt, s.Tok())
		lcp := baselines.NewLlamaCpp(s.PDA(key+"-plain", task.grammar, pda.Options{}), s.Tok())
		accum("xgrammar", task.name, xg, task.docs, s.FastStepCap)
		accum("outlines", task.name, outl, task.docs, s.SlowStepCap)
		accum("llama.cpp-grammar", task.name, lcp, task.docs, s.SlowStepCap)
	}

	tasks := []string{"JSON Schema", "CFG (JSON)", "CFG (XML)", "CFG (Python DSL)"}
	for _, e := range engines {
		row := []string{e}
		for _, task := range tasks {
			c := results[e][task]
			if !c.ok || c.steps == 0 {
				row = append(row, "n/s")
				continue
			}
			row = append(row, fmtUS(c.lat/time.Duration(c.steps)))
		}
		t.Add(row...)
	}
	t.Note(clockWall + " — every cell is the measured mean FillMask latency on this machine")
	t.Note("vocab=%d; full-scan engines measured over %d steps/task; n/s = grammar class not supported", s.Vocab, s.SlowStepCap)
	t.Note("outlines uses FSM token indexing on the schema task and the interpreted CFG path otherwise, as in the paper")
	return t
}

// tab3Configs names the cumulative ablation rows of Table 3.
var tab3Configs = []string{
	"PDA baseline", "+ node merging", "+ adaptive token mask cache", "+ rule inlining", "+ context expansion",
}

// tab3Latencies measures one mean per-token mask latency per tab3Configs row
// on the CFG (unconstrained JSON) task.
func (s *Suite) tab3Latencies() []time.Duration {
	jsonDocs := s.cfgTasks()[0].docs
	g := s.cfgTasks()[0].grammar
	merged := s.PDA("tab3-merge", g, pda.Options{NodeMerging: true})
	inlined := s.PDA("tab3-inline", g, pda.AllOptimizations)
	xg := func(p *pda.PDA, cacheKey string, opts maskcache.Options) baselines.Backend {
		return baselines.NewXGBackend(p, s.Cache(cacheKey, p, opts), s.Tok(), "xgrammar")
	}
	rows := []struct {
		backend baselines.Backend
		cap     int
	}{
		{baselines.NewLlamaCpp(s.PDA("tab3-plain", g, pda.Options{}), s.Tok()), s.SlowStepCap},
		{baselines.NewLlamaCpp(merged, s.Tok()), s.SlowStepCap},
		{xg(merged, "tab3-cache", maskcache.Options{}), s.FastStepCap},
		{xg(inlined, "tab3-inline", maskcache.Options{}), s.FastStepCap},
		{xg(inlined, "tab3-ctx", maskcache.Options{ContextExpansion: true}), s.FastStepCap},
	}
	lats := make([]time.Duration, len(rows))
	for i, r := range rows {
		lats[i], _ = s.measureMaskLatency(r.backend, jsonDocs, r.cap)
	}
	return lats
}

// Tab3 reproduces Table 3: the cumulative ablation of the optimization
// techniques, measured as mean per-token mask generation latency on the
// CFG (unconstrained JSON) task.
func (s *Suite) Tab3() *Table {
	t := &Table{
		ID:     "tab3",
		Title:  "Ablation of optimization techniques (CFG JSON mask generation)",
		Paper:  "PDA baseline 65.776ms; +node merging 38.280 (1.7x); +adaptive cache 0.154 (248.6x); +rule inlining 0.035 (4.4x); +context expansion 0.018ms (1.9x)",
		Header: []string{"configuration", "per-token latency (ms)", "speedup vs prev"},
	}
	var prev time.Duration
	for i, lat := range s.tab3Latencies() {
		speedup := "-"
		if prev > 0 && lat > 0 {
			speedup = fmt.Sprintf("%.1fx", float64(prev)/float64(lat))
		}
		t.Add(tab3Configs[i], fmtMS(lat), speedup)
		prev = lat
	}
	t.Note(clockWall + " — every row is the measured mean FillMask latency on this machine")
	t.Note("vocab=%d; each row adds one optimization on top of the previous row, as in the paper", s.Vocab)
	return t
}
