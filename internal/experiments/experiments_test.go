package experiments

import (
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// quickSuite shares one suite across tests (artifacts are memoized).
var shared *Suite

func suite(t *testing.T) *Suite {
	t.Helper()
	if shared == nil {
		shared = NewSuite(true)
	}
	return shared
}

// cellMS parses a table cell produced by fmtMS.
func cellMS(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not a number: %v", cell, err)
	}
	return v
}

func findRow(t *testing.T, tb *Table, prefix ...string) []string {
	t.Helper()
outer:
	for _, row := range tb.Rows {
		for i, p := range prefix {
			if i >= len(row) || row[i] != p {
				continue outer
			}
		}
		return row
	}
	t.Fatalf("row %v not found in %s", prefix, tb.String())
	return nil
}

func TestFig9Shape(t *testing.T) {
	tb := suite(t).Fig9()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// lm-format-enforcer must not support the CFG tasks.
	lmfe := findRow(t, tb, "lm-format-enforcer")
	for _, c := range lmfe[2:] {
		if c != "n/s" {
			t.Fatalf("lm-format-enforcer supported a CFG: %v", lmfe)
		}
	}
	// XGrammar must be the fastest engine on every CFG task (typical margin
	// ≥ 70x over the interpreted Outlines path, > 1000x over llama.cpp).
	xg := findRow(t, tb, "xgrammar")
	for col := 2; col < 5; col++ {
		xgv := cellMS(t, xg[col])
		for _, row := range tb.Rows {
			if row[0] == "xgrammar" || row[col] == "n/s" {
				continue
			}
			if v := cellMS(t, row[col]); v < xgv {
				t.Errorf("col %d: %s (%v) faster than xgrammar (%v)", col, row[0], v, xgv)
			}
		}
	}
	// On the JSON Schema task our reimplemented Outlines is a memoized table
	// lookup, so the two sub-microsecond means are not ordered against each
	// other. What the row stands for is that XGrammar answers from its mask
	// cache instead of scanning the vocabulary: it beats the full-scan engine
	// (typical margin > 300x) and only a sliver of the vocabulary is left
	// context-dependent per automaton node.
	lcp := findRow(t, tb, "llama.cpp-grammar")
	if cellMS(t, lcp[1]) <= cellMS(t, xg[1]) {
		t.Errorf("schema: llama.cpp (%s) not slower than xgrammar (%s)", lcp[1], xg[1])
	}
	s := suite(t)
	for _, art := range s.Schemas() {
		st := s.caches["schema-"+art.Task.Name].Stats()
		if float64(st.CtxDependent)/float64(st.Nodes) > 0.01*float64(s.Vocab) {
			t.Errorf("schema %s: %d context-dependent tokens over %d nodes is more than 1%% of the vocabulary per node (paper §3.1: < 1%%)",
				art.Task.Name, st.CtxDependent, st.Nodes)
		}
	}
	// CFG speedup over the full-scan engines should be large.
	if cellMS(t, lcp[2])/cellMS(t, xg[2]) < 20 {
		t.Errorf("CFG speedup too small: llama.cpp %s vs xgrammar %s", lcp[2], xg[2])
	}
	t.Log("\n" + tb.String())
}

func TestTab3AblationMonotone(t *testing.T) {
	s := suite(t)
	// Median of three measurements per row: the cached rows are
	// sub-microsecond means and one noisy pass must not decide the test.
	runs := [][]time.Duration{s.tab3Latencies(), s.tab3Latencies(), s.tab3Latencies()}
	med := make([]float64, len(tab3Configs))
	for i := range med {
		v := []time.Duration{runs[0][i], runs[1][i], runs[2][i]}
		sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
		med[i] = float64(v[1])
	}
	for i := 1; i < len(med); i++ {
		if med[i] > med[i-1]*1.5 {
			// Each optimization should not significantly regress.
			t.Errorf("row %q (%v ns) much slower than previous (%v ns)", tab3Configs[i], med[i], med[i-1])
		}
	}
	// The cumulative speedup of the cache-based rows over the scan-based
	// baseline must be dramatic even at quick-mode scale.
	if med[0]/med[2] < 3 {
		t.Errorf("adaptive cache speedup only %.1fx", med[0]/med[2])
	}
	if med[0]/med[4] < 50 {
		t.Errorf("full stack speedup only %.1fx", med[0]/med[4])
	}
	tb := s.Tab3()
	if len(tb.Rows) != len(tab3Configs) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	t.Log("\n" + tb.String())
}

func TestFig10Shape(t *testing.T) {
	tb := suite(t).Fig10()
	// XGrammar-based rows must beat llama.cpp at every batch size for both
	// tasks. The XGrammar cell is the modelled GPU step as long as its fill
	// (microseconds) hides behind it (6 ms), and llama.cpp's cell is the same
	// step plus its measured scan — so the order flips only if XGrammar's
	// fill grows > 1000x.
	for _, task := range []string{"JSON Schema", "CFG (JSON)"} {
		lcp := findRow(t, tb, task, "llama.cpp")
		xg := findRow(t, tb, task, "SGLang + XGrammar")
		firstRatio := 0.0
		for col := 2; col < len(lcp); col++ {
			l, x := cellMS(t, lcp[col]), cellMS(t, xg[col])
			if l <= x {
				t.Errorf("%s batch col %d: llama.cpp (%v) not slower than xgrammar (%v)", task, col, l, x)
			}
			if col == 2 {
				firstRatio = l / x
			}
		}
		last := len(lcp) - 1
		if cellMS(t, lcp[last])/cellMS(t, xg[last]) < firstRatio {
			t.Logf("%s: gap did not grow with batch (ok in quick mode)", task)
		}
	}
	t.Log("\n" + tb.String())
}

func TestTab1Shape(t *testing.T) {
	tb := suite(t).Tab1()
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		outl, xg := cellMS(t, row[1]), cellMS(t, row[2])
		if xg > outl {
			t.Errorf("%s: XGrammar (%v) slower than Outlines (%v)", row[0], xg, outl)
		}
	}
	t.Log("\n" + tb.String())
}

func TestTab2NearZeroOverhead(t *testing.T) {
	tb := suite(t).Tab2()
	// Both cells are the modelled GPU step unless the measured batch fill
	// (tens of microseconds) outlasts it (6 ms): a > 100x margin.
	for _, row := range tb.Rows {
		off, on := cellMS(t, row[2]), cellMS(t, row[3])
		if on > off*1.20 {
			t.Errorf("%s batch %s: overhead too high: %v vs %v", row[0], row[1], on, off)
		}
	}
	t.Log("\n" + tb.String())
}

func TestTab4Accuracy(t *testing.T) {
	tb := suite(t).Tab4()
	for _, row := range tb.Rows {
		unc := strings.TrimSuffix(row[1], "%")
		con := strings.TrimSuffix(row[2], "%")
		u, _ := strconv.Atoi(unc)
		c, _ := strconv.Atoi(con)
		if c != 100 {
			t.Errorf("%s: constrained accuracy %d%%, want 100%%", row[0], c)
		}
		if u >= 100 {
			t.Errorf("%s: unconstrained accuracy %d%% should be below 100%%", row[0], u)
		}
		if u < 30 {
			t.Errorf("%s: unconstrained accuracy %d%% implausibly low", row[0], u)
		}
	}
	t.Log("\n" + tb.String())
}

func TestFig11JumpForwardHelps(t *testing.T) {
	tb := suite(t).Fig11()
	for _, row := range tb.Rows {
		plain, jf := cellMS(t, row[1]), cellMS(t, row[2])
		if jf > plain*1.02 {
			t.Errorf("%s: jump-forward regressed TPOT: %v -> %v", row[0], plain, jf)
		}
	}
	xg := findRow(t, tb, "XGrammar")
	if n, _ := strconv.Atoi(xg[3]); n == 0 {
		t.Error("XGrammar produced no jump-forward tokens")
	}
	t.Log("\n" + tb.String())
}

func TestFig12NearZeroDeviceOverhead(t *testing.T) {
	tb := suite(t).Fig12()
	// As in Table 2, against 30 ms and 48 ms modelled steps (> 1000x margin).
	for _, row := range tb.Rows {
		tuOff, tuOn := cellMS(t, row[3]), cellMS(t, row[4])
		if tuOn > tuOff*1.25 {
			t.Errorf("%s: structured TPOT overhead too high: %v vs %v", row[0], tuOn, tuOff)
		}
		ttOff, ttOn := cellMS(t, row[1]), cellMS(t, row[2])
		if ttOn < ttOff*0.9 {
			t.Errorf("%s: structured TTFT suspiciously lower: %v vs %v", row[0], ttOn, ttOff)
		}
	}
	t.Log("\n" + tb.String())
}

func TestStatsShape(t *testing.T) {
	tb := suite(t).Stats()
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	t.Log("\n" + tb.String())
}

func TestByIDAndRender(t *testing.T) {
	s := suite(t)
	for _, id := range []string{"fig9", "fig10", "tab1", "tab2", "tab3", "tab4", "fig11", "fig12", "stats", "par"} {
		tb, ok := s.ByID(id)
		if !ok || tb == nil {
			t.Fatalf("ByID(%s) failed", id)
		}
		if !strings.Contains(tb.String(), "==") || !strings.Contains(tb.Markdown(), "|") {
			t.Fatalf("%s: bad rendering", id)
		}
		// Every table says whether its columns are wall-clock or modelled.
		clocks := 0
		for _, n := range tb.Notes {
			if strings.HasPrefix(n, "clock: ") {
				clocks++
			}
		}
		if clocks != 1 {
			t.Errorf("%s: %d clock notes, want exactly 1: %q", id, clocks, tb.Notes)
		}
	}
	for _, id := range []string{"nope", "serve", "store", "backend"} {
		if _, ok := s.ByID(id); ok {
			t.Fatalf("id %q resolved", id)
		}
	}
}

func TestSuiteTimersRecorded(t *testing.T) {
	s := suite(t)
	s.XGrammarJSON()
	if s.InitTime("json-opt") <= 0 {
		t.Fatal("no init time recorded")
	}
	_ = time.Now()
}
