package main

import (
	"fmt"
	"sync"
)

// verdict is the outcome of the output checks that run outside timed code.
type verdict struct {
	fingerprint maskFingerprint // over every mask of one walk through every document
	checked     int             // operations checked
	failed      int
	notes       []string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// verify walks every document once, untimed, the way the workload decodes
// it, folding every mask into the fingerprint (so two runs of one seed can
// be shown to have computed the same masks), then compares the engine's
// masks with the independent oracle on oracleSteps steps of each of the
// workload's grammar classes.
// For compile_cold it first compiles the set again and requires Stats()
// identical to the timed pass's compiles.
func (e *env) verify(oracleSteps int) verdict {
	var v verdict
	if e.w.cold {
		v.checked += e.coldMismatch
		v.failed += e.coldMismatch
		for gi, g := range e.tr.grammars {
			cg, err := e.comp.CompileSpec(g.spec)
			v.checked++
			if err != nil {
				v.fail("recompile %s: %v", g.name, err)
				return v
			}
			if prev := e.coldStats[gi]; prev.PDANodes != 0 && cg.Stats() != prev {
				v.fail("%s: Stats() differ between two compiles", g.name)
			}
			e.cgs = append(e.cgs, cg)
		}
	}
	scripted := e.w.scripted()
	for di := range e.tr.docs {
		doc := &e.tr.docs[di]
		s, _, err := e.eng.AcquireSession(e.cgs[doc.grammar], doc.prefix)
		v.checked++
		if err != nil {
			v.fail("doc %d: %v", di, err)
			continue
		}
		if scripted {
			err = driveScript(s, e.refs[di], v.fingerprint.add)
		} else {
			err = driveTokens(s, e.refs[di], v.fingerprint.add)
		}
		s.Close()
		if err != nil {
			v.fail("doc %d (%s): %v", di, e.tr.grammars[doc.grammar].name, err)
		}
	}
	e.checkOracle(&v, oracleSteps)
	return v
}

// checkOracle steps the first grammar of each class through its documents
// beside the full-vocabulary oracle and requires equal masks on `steps` steps
// of each. The classes run side by side, one goroutine each: a scan of 32k
// tokens costs 10-40 ms and nothing is being timed.
func (e *env) checkOracle(v *verdict, steps int) {
	var firsts []int
	seen := map[string]bool{}
	for gi, g := range e.tr.grammars {
		if !seen[g.class] {
			seen[g.class] = true
			firsts = append(firsts, gi)
		}
	}
	parts := make([]verdict, len(firsts))
	var wg sync.WaitGroup
	for i, gi := range firsts {
		wg.Add(1)
		go func(part *verdict, gi int) {
			defer wg.Done()
			e.checkOracleGrammar(part, gi, steps)
		}(&parts[i], gi)
	}
	wg.Wait()
	for _, part := range parts {
		v.checked += part.checked
		v.failed += part.failed
		v.notes = append(v.notes, part.notes...)
	}
}

// checkOracleGrammar is checkOracle's walk over one grammar's unprefixed
// documents, cycling through them until the steps are done.
func (e *env) checkOracleGrammar(v *verdict, gi, want int) {
	g := &e.tr.grammars[gi]
	var docs []int
	for di := range e.tr.docs {
		if e.tr.docs[di].grammar == gi && e.tr.docs[di].prefix == "" {
			docs = append(docs, di)
		}
	}
	for steps, k := 0, 0; steps < want; k++ {
		di := docs[k%len(docs)]
		or, err := newOracle(e.info, g.spec)
		if err != nil {
			v.fail("oracle %s: %v", g.name, err)
			return
		}
		s := e.eng.OpenSession(e.cgs[gi])
		for _, id := range append(e.info.Encode(e.tr.docs[di].text), e.info.EOSTokenID()) {
			if steps >= want {
				break
			}
			steps++
			v.checked++
			if !equalWords(s.Mask(), or.mask()) {
				v.fail("%s doc %d: mask differs from the full-vocabulary scan at step %d", g.name, di, steps)
				s.Close()
				return
			}
			if _, err := s.Step(id); err != nil {
				v.fail("%s doc %d: %v", g.name, di, err)
				s.Close()
				return
			}
			if err := or.accept(id); err != nil {
				v.fail("%s doc %d: oracle: %v", g.name, di, err)
				s.Close()
				return
			}
		}
		s.Close()
	}
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compiledKiBMean is the mean compiled size of the workload's grammars:
// adaptive mask storage plus materialised canonical masks, an exact count.
func (e *env) compiledKiBMean() float64 {
	var sum int64
	for _, cg := range e.cgs {
		st := cg.Stats()
		sum += st.AdaptiveBytes + st.CanonicalBytes
	}
	return float64(sum) / 1024 / float64(len(e.cgs))
}
