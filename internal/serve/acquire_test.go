package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"xgrammar/internal/prefixcache"
	"xgrammar/internal/spec"
	"xgrammar/internal/tokenizer"
)

func newAcquirer(e env, budget int64, minDepth, stride int) *Acquirer {
	pool := NewSessionPool(e.p, e.cache, e.tok, 0)
	return NewAcquirer(pool, prefixcache.New(budget), "test-grammar", minDepth, stride)
}

func masksSame(a, b []uint64) bool {
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

// decodeGreedy drives a session to completion with a deterministic seeded
// sampler, returning the emitted text. Identical masks at every position
// produce identical output, so equal outputs certify byte-identity.
func decodeGreedy(t *testing.T, e env, s *Session, seed int64, maxTokens int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := ""
	for tokens := 0; tokens < maxTokens; tokens++ {
		mask := s.Mask()
		var allowed []int32
		for id := int32(0); id < int32(e.tok.VocabSize()); id++ {
			if mask[id/64]&(1<<(id%64)) != 0 {
				allowed = append(allowed, id)
			}
		}
		if len(allowed) == 0 {
			break
		}
		id := allowed[rng.Intn(len(allowed))]
		if id == tokenizer.EosID {
			if err := s.Accept(id); err != nil {
				t.Fatalf("accept EOS: %v", err)
			}
			break
		}
		if _, err := s.Step(id); err != nil {
			t.Fatalf("step token %d: %v", id, err)
		}
		out += string(e.tok.TokenBytes(id))
	}
	return out
}

// TestAcquireWarmMatchesCold is the core byte-identity check: cold and warm
// acquisitions of the same forced prefix must produce identical masks and —
// driven by the same seeded sampler — identical decoded bytes.
func TestAcquireWarmMatchesCold(t *testing.T) {
	e := testEnv(t)
	prefixes := []string{
		`{"name": "`,
		`{"user": {"id": 12345, "tags": ["`,
		`[[1, 2], [3, `,
	}
	for pi, prefix := range prefixes {
		a := newAcquirer(e, 1<<20, 1, 0)
		cold, res, err := a.Acquire([]byte(prefix))
		if err != nil {
			t.Fatalf("cold acquire %q: %v", prefix, err)
		}
		if res.Hit || res.ReplayedBytes != len(prefix) {
			t.Fatalf("cold acquire %q reported %+v", prefix, res)
		}
		coldMask := append([]uint64(nil), cold.Mask()...)
		coldOut := decodeGreedy(t, e, cold, 42, 200)
		cold.Close() // publishes the full-prefix checkpoint + mask

		warm, res, err := a.Acquire([]byte(prefix))
		if err != nil {
			t.Fatalf("warm acquire %q: %v", prefix, err)
		}
		if !res.Hit || !res.MaskReused || res.ReusedBytes != len(prefix) {
			t.Fatalf("warm acquire %q not exact-hit: %+v", prefix, res)
		}
		if !masksSame(warm.Mask(), coldMask) {
			t.Fatalf("prefix %q: warm first mask differs from cold", prefix)
		}
		warmOut := decodeGreedy(t, e, warm, 42, 200)
		warm.Close()
		if warmOut != coldOut {
			t.Fatalf("prefix %q: warm decode %q != cold %q", prefix, warmOut, coldOut)
		}
		st := a.Stats()
		if st.WarmStarts != 1 || st.ExactHits != 1 || st.BytesReused != int64(len(prefix)) {
			t.Fatalf("prefix %d acquirer stats %+v", pi, st)
		}
	}
}

// TestAcquirePartialHitReplaysResidual publishes a short prefix, then
// acquires a longer one: the cached checkpoint must cover the shared bytes
// and only the residual must replay, with identical masks.
func TestAcquirePartialHitReplaysResidual(t *testing.T) {
	e := testEnv(t)
	a := newAcquirer(e, 1<<20, 1, 0)
	short := `{"name": "`
	long := `{"name": "alice", "age": `

	s, _, err := a.Acquire([]byte(short))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	warm, res, err := a.Acquire([]byte(long))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || res.ReusedBytes != len(short) || res.ReplayedBytes != len(long)-len(short) {
		t.Fatalf("partial hit result %+v", res)
	}
	warmMask := append([]uint64(nil), warm.Mask()...)
	warm.Close()

	ref := referenceMask(e, long)
	if !masksSame(warmMask, ref.Words()) {
		t.Fatal("partial-hit mask differs from reference")
	}
}

// TestAcquireSpeculativeByteIdentity runs spec.Step draft-verify decoding on
// cold and warm sessions with identical seeded proposers/samplers: the
// speculative path over a restored checkpoint must remain byte-identical.
func TestAcquireSpeculativeByteIdentity(t *testing.T) {
	e := testEnv(t)
	prefix := `{"items": [`
	run := func(s *Session) string {
		rng := rand.New(rand.NewSource(7))
		var w spec.Window
		out := ""
		pick := func(_ int, mask []uint64) (int32, bool) {
			var allowed []int32
			for id := int32(0); id < int32(e.tok.VocabSize()); id++ {
				if mask[id/64]&(1<<(id%64)) != 0 {
					allowed = append(allowed, id)
				}
			}
			if len(allowed) == 0 {
				return 0, false
			}
			return allowed[rng.Intn(len(allowed))], true
		}
		for step := 0; step < 30 && !s.IsTerminated(); step++ {
			res, err := spec.Step(s, func() { s.Fill() }, pick, pick, &w, spec.Options{MaxDraft: 4, EOS: tokenizer.EosID})
			if err != nil {
				t.Fatalf("spec step: %v", err)
			}
			for i := 0; i < res.Accepted; i++ {
				out += string(e.tok.TokenBytes(w.DraftAt(i)))
			}
			if res.HasBonus && !res.Terminated {
				out += string(e.tok.TokenBytes(res.Bonus))
			}
		}
		return out
	}

	a := newAcquirer(e, 1<<20, 1, 0)
	cold, _, err := a.Acquire([]byte(prefix))
	if err != nil {
		t.Fatal(err)
	}
	coldOut := run(cold)
	cold.Close()

	warm, res, err := a.Acquire([]byte(prefix))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatalf("expected warm hit, got %+v", res)
	}
	warmOut := run(warm)
	warm.Close()
	if warmOut != coldOut {
		t.Fatalf("speculative warm decode %q != cold %q", warmOut, coldOut)
	}
}

// TestRollbackPastCheckpointDegradesCold checks the fork-point degrade: a
// warm session rolled back across the restored checkpoint lands at the
// grammar start, exactly where a cold session's equivalent rollback lands.
func TestRollbackPastCheckpointDegradesCold(t *testing.T) {
	e := testEnv(t)
	prefix := `{"k": `
	a := newAcquirer(e, 1<<20, 1, 0)
	s, _, err := a.Acquire([]byte(prefix))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	cold := a.pool.Acquire()
	if err := cold.AcceptString(prefix); err != nil {
		t.Fatal(err)
	}
	warm, res, err := a.Acquire([]byte(prefix))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || res.ReusedBytes != len(prefix) {
		t.Fatalf("expected exact hit, got %+v", res)
	}

	// Advance both one token, then roll back 2 steps: the token plus the
	// prefix step (virtual on the warm session).
	ids := e.tok.Encode(`[1`)
	if err := cold.Accept(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := warm.Accept(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := cold.Rollback(2); err != nil {
		t.Fatalf("cold rollback: %v", err)
	}
	if err := warm.Rollback(2); err != nil {
		t.Fatalf("warm rollback across fork: %v", err)
	}
	cold.Fill()
	warm.Fill()
	if !masksSame(warm.Mask(), cold.Mask()) {
		t.Fatal("post-degrade mask differs from cold start state")
	}
	// Rolling back more than the virtual step allows still fails atomically.
	if err := warm.Rollback(1); err == nil {
		t.Fatal("rollback beyond start unexpectedly succeeded")
	}
	cold.Close()
	warm.Close()
}

// TestStridePublishesIntermediateCheckpoints checks depth-configured
// publication: with a stride, a long prefix plants checkpoints at stride
// multiples, so a shorter query sharing only the scaffold still warm-starts.
func TestStridePublishesIntermediateCheckpoints(t *testing.T) {
	e := testEnv(t)
	a := newAcquirer(e, 1<<20, 1, 8)
	long := `{"scaffold": {"shared": true}, "x": 1`
	s, _, err := a.Acquire([]byte(long))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A different continuation sharing only the first 16 bytes.
	shorter := long[:16] + `false}}`
	warm, res, err := a.Acquire([]byte(shorter))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if !res.Hit || res.ReusedBytes != 16 {
		t.Fatalf("stride warm-start result %+v, want 16 reused bytes", res)
	}
	ref := referenceMask(e, shorter)
	if !masksSame(warm.Mask(), ref.Words()) {
		t.Fatal("stride warm mask differs from reference")
	}
}

// TestAcquireInvalidPrefix checks the error path: the session returns to the
// pool and the acquirer stays usable.
func TestAcquireInvalidPrefix(t *testing.T) {
	e := testEnv(t)
	a := newAcquirer(e, 1<<20, 1, 0)
	if _, _, err := a.Acquire([]byte(`{"a" 12`)); err == nil {
		t.Fatal("invalid prefix accepted")
	}
	s, res, err := a.Acquire([]byte(`{"a"`))
	if err != nil {
		t.Fatalf("acquire after failure: %v", err)
	}
	defer s.Close()
	if res.PrefixLen != 4 {
		t.Fatalf("result %+v", res)
	}
}

// TestConcurrentAcquireRelease drives many goroutines through one acquirer
// on a handful of templates with a tiny cache budget (constant eviction
// churn); run under -race. Every session's first mask must equal the
// reference for its prefix regardless of interleaving.
func TestConcurrentAcquireRelease(t *testing.T) {
	e := testEnv(t)
	a := newAcquirer(e, 4<<10, 1, 8)
	prefixes := []string{
		`{"name": "`,
		`{"name": "alice", "age": `,
		`[[1, 2], [3, `,
		`{"k": [true, null, `,
	}
	refs := make([][]uint64, len(prefixes))
	for i, p := range prefixes {
		refs[i] = referenceMask(e, p).Words()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				pi := rng.Intn(len(prefixes))
				s, _, err := a.Acquire([]byte(prefixes[pi]))
				if err != nil {
					panic(fmt.Sprintf("acquire: %v", err))
				}
				if !masksSame(s.Mask(), refs[pi]) {
					panic("concurrent warm mask diverged from reference")
				}
				s.Close()
			}
		}(int64(w))
	}
	wg.Wait()
	if n := a.pool.Outstanding(); n != 0 {
		t.Fatalf("%d sessions outstanding after every session closed", n)
	}
}
