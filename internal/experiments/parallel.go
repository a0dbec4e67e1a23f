package experiments

import (
	"fmt"
	"runtime"
	"time"

	"xgrammar/internal/maskcache"
	"xgrammar/internal/pda"
)

// Par measures grammar-preprocessing time — the adaptive token mask cache
// build of §3.1–§3.3 — serially and with the worker-pool build, for each
// builtin grammar. Upstream XGrammar hides this cost behind a multi-threaded
// compiler; this table reports how much of it the Go worker pool recovers on
// the current machine.
func (s *Suite) Par() *Table {
	workers := runtime.GOMAXPROCS(0)
	t := &Table{
		ID:    "par",
		Title: "Parallel mask-cache build (preprocessing speedup)",
		Paper: "upstream XGrammar parallelizes grammar compilation across CPU threads; output is byte-identical to the serial build",
		Header: []string{
			"grammar", "PDA nodes", "serial build", fmt.Sprintf("parallel build (%d workers)", workers), "speedup",
		},
	}
	for _, task := range s.cfgTasks() {
		p := s.PDA("par-"+task.name, task.grammar, pda.AllOptimizations)
		// Warm up heap and caches so the serial timing isn't inflated by
		// first-build allocation effects.
		maskcache.Build(p, s.Tok(), maskcache.Options{ContextExpansion: true, Workers: 1})
		t0 := time.Now()
		maskcache.Build(p, s.Tok(), maskcache.Options{ContextExpansion: true, Workers: 1})
		serial := time.Since(t0)
		t1 := time.Now()
		maskcache.Build(p, s.Tok(), maskcache.Options{ContextExpansion: true})
		par := time.Since(t1)
		speedup := "-"
		if par > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(serial)/float64(par))
		}
		t.Add(
			task.name,
			fmt.Sprintf("%d", p.NumNodes()),
			serial.Round(time.Microsecond).String(),
			par.Round(time.Microsecond).String(),
			speedup,
		)
	}
	t.Note(clockWall + " — both build columns are measured on this machine (one build each, after a warm-up)")
	t.Note("vocab=%d; each PDA node's vocabulary scan is independent, so the build fans out across a bounded worker pool", s.Vocab)
	t.Note("speedup tracks available cores (GOMAXPROCS=%d here); masks and statistics are identical for any worker count", workers)
	return t
}
