package xgrammar

import (
	"encoding/json"
	"math/rand"
	"testing"
	"unicode/utf8"

	"xgrammar/internal/workload"
)

// TestBuiltinJSONMatchesEncodingJSON checks the builtin JSON grammar, driven
// through the public Matcher, against an oracle that shares no code with the
// engine: a document is complete under the grammar exactly when
// encoding/json accepts it and it is valid UTF-8. Inputs are generated
// documents plus seeded byte deletions, insertions and substitutions.
func TestBuiltinJSONMatchesEncodingJSON(t *testing.T) {
	cg := mustCompileJSON(t)
	m := NewMatcher(cg)
	// Insertion and substitution material: structure, literals, control and
	// invalid bytes, and multi-byte UTF-8 (2, 3 and 4 bytes).
	pieces := []string{
		"{", "}", "[", "]", ",", ":", `"`, `\`, " ", "\n", "\t",
		"0", "1", "-", "+", ".", "e", "E", "t", "n", "u", "f",
		"\x00", "\x1f", "\x7f", "\xff", "\xc3", "é", "€", "𝄞",
	}
	rng := rand.New(rand.NewSource(11))
	docs := workload.JSONDocs(2000, 3)
	var inputs []string
	for _, doc := range docs {
		inputs = append(inputs, doc)
		for k := 0; k < 4; k++ {
			b := []byte(doc)
			i := rng.Intn(len(b) + 1)
			p := pieces[rng.Intn(len(pieces))]
			switch op := rng.Intn(3); {
			case op == 0 && len(b) > 0: // delete
				if i == len(b) {
					i--
				}
				b = append(b[:i:i], b[i+1:]...)
			case op == 1 && i < len(b): // substitute
				b = append(append(b[:i:i], p...), b[i+1:]...)
			default: // insert
				b = append(append(b[:i:i], p...), b[i:]...)
			}
			inputs = append(inputs, string(b))
		}
	}
	valid := 0
	for _, in := range inputs {
		want := json.Valid([]byte(in)) && utf8.ValidString(in)
		m.Reset()
		got := m.AcceptString(in) == nil && m.CanTerminate()
		if got != want {
			t.Fatalf("grammar says %v, encoding/json says %v for %q", got, want, in)
		}
		if want {
			valid++
		}
	}
	// Both verdicts must be exercised for the comparison to mean anything.
	if valid == 0 || valid == len(inputs) {
		t.Fatalf("%d of %d inputs valid: mutations do not cover both verdicts", valid, len(inputs))
	}
	t.Logf("%d inputs, %d valid, 0 disagreements", len(inputs), valid)
}
