package serve

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkSessionStep measures the fused per-token hot path (accept +
// jump-forward probe + mask fill) on a recycled session in steady state.
// The acceptance bar for this runtime is 0 allocs/op.
func BenchmarkSessionStep(b *testing.B) {
	e := testEnv(b)
	pool := NewSessionPool(e.p, e.cache, e.tok, 0)
	var sb strings.Builder
	sb.WriteString(`[`)
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `{"id": %d, "ok": true}`, i)
	}
	sb.WriteString(`]`)
	doc := sb.String()
	ids := e.tok.Encode(doc)

	s := pool.Acquire()
	s.Fill()
	for _, id := range ids { // settle capacities
		if _, err := s.Step(id); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()

	s = pool.Acquire()
	s.Fill()
	i := 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if i == len(ids) {
			b.StopTimer()
			s.Close() // release resets; the next acquire recycles it
			s = pool.Acquire()
			s.Fill()
			i = 0
			b.StartTimer()
		}
		if _, err := s.Step(ids[i]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
