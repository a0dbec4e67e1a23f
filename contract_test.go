package xgrammar

import (
	"testing"

	"xgrammar/internal/baselines"
	"xgrammar/internal/bitset"
	"xgrammar/internal/serve"
)

// sessionView is the per-sequence grammar-session contract as seen through
// one public surface: the Matcher, an Engine Session, or an XGBackend
// session of the comparison harness.
type sessionView interface {
	accept(id int32) error
	acceptString(s string) error
	rollback(n int) error
	canTerminate() bool
	isTerminated() bool
	jumpForward() string
	mask() []uint64
	// branch forks the view at its current position; discard ends a branch.
	branch() sessionView
	discard()
}

type matcherView struct{ m *Matcher }

func (v matcherView) accept(id int32) error       { return v.m.AcceptToken(id) }
func (v matcherView) acceptString(s string) error { return v.m.AcceptString(s) }
func (v matcherView) rollback(n int) error        { return v.m.Rollback(n) }
func (v matcherView) canTerminate() bool          { return v.m.CanTerminate() }
func (v matcherView) isTerminated() bool          { return v.m.IsTerminated() }
func (v matcherView) jumpForward() string         { return v.m.FindJumpForwardString() }
func (v matcherView) branch() sessionView         { return matcherView{v.m.Branch()} }
func (v matcherView) discard()                    { v.m.Discard() }
func (v matcherView) mask() []uint64 {
	mask := make([]uint64, v.m.cg.MaskWords())
	if _, err := v.m.FillNextTokenBitmask(mask); err != nil {
		panic(err)
	}
	return mask
}

// engineView branches through the portable checkpoint, the Engine's way of
// forking a session; a branch is closed back into the pool on discard.
type engineView struct {
	e *Engine
	s *Session
}

func (v engineView) accept(id int32) error       { return v.s.Accept(id) }
func (v engineView) acceptString(s string) error { return v.s.AcceptString(s) }
func (v engineView) rollback(n int) error        { return v.s.Rollback(n) }
func (v engineView) canTerminate() bool          { return v.s.CanTerminate() }
func (v engineView) isTerminated() bool          { return v.s.IsTerminated() }
func (v engineView) jumpForward() string         { return v.s.JumpForward() }
func (v engineView) discard()                    { v.s.Close() }
func (v engineView) mask() []uint64 {
	v.s.Fill()
	return append([]uint64(nil), v.s.Mask()...)
}
func (v engineView) branch() sessionView {
	cp, err := v.s.Checkpoint()
	if err != nil {
		panic(err)
	}
	return engineView{v.e, v.e.OpenSessionAt(v.s.Grammar(), cp)}
}

// xgCore is what an XGBackend session offers beyond baselines.Session.
type xgCore interface {
	Accept(id int32) error
	AcceptString(text string) error
	Rollback(n int) error
	CanTerminate() bool
	IsTerminated() bool
	JumpForward() string
	Fork() *serve.Session
	Discard()
}

type xgView struct {
	core  xgCore
	fill  func(*bitset.Bitset)
	vocab int
}

func (v xgView) accept(id int32) error       { return v.core.Accept(id) }
func (v xgView) acceptString(s string) error { return v.core.AcceptString(s) }
func (v xgView) rollback(n int) error        { return v.core.Rollback(n) }
func (v xgView) canTerminate() bool          { return v.core.CanTerminate() }
func (v xgView) isTerminated() bool          { return v.core.IsTerminated() }
func (v xgView) jumpForward() string         { return v.core.JumpForward() }
func (v xgView) discard()                    { v.core.Discard() }
func (v xgView) mask() []uint64 {
	bs := bitset.New(v.vocab)
	v.fill(bs)
	return bs.Words()
}
func (v xgView) branch() sessionView {
	f := v.core.Fork()
	core, ok := any(f).(xgCore) // a fork is a bare serve.Session
	if !ok {
		panic("serve.Session lacks the session contract")
	}
	return xgView{core, func(b *bitset.Bitset) { f.FillMask(b) }, v.vocab}
}

func bitSet(mask []uint64, id int32) bool { return mask[id>>6]&(1<<uint(id&63)) != 0 }

func zeroMask(mask []uint64) bool {
	for _, w := range mask {
		if w != 0 {
			return false
		}
	}
	return true
}

// TestSessionContract drives every public grammar-session surface through
// the same scenarios: they are views of one implementation, so they must
// agree on every verdict and produce identical masks at every step.
func TestSessionContract(t *testing.T) {
	info := testTokenizer(t)
	compiler := NewCompiler(info)
	cg, err := compiler.CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(compiler)
	eos := info.EOSTokenID()
	var special int32 = -1
	for id := int32(0); id < int32(info.VocabSize()); id++ {
		if info.IsSpecial(id) && id != eos {
			special = id
			break
		}
	}
	if special < 0 {
		t.Fatal("tokenizer has no non-stop special token")
	}
	doc := info.Encode(`{"a": 1}`)

	views := []struct {
		name string
		open func(t *testing.T) sessionView
	}{
		{"Matcher", func(*testing.T) sessionView { return matcherView{NewMatcher(cg)} }},
		{"EngineSession", func(*testing.T) sessionView { return engineView{eng, eng.OpenSession(cg)} }},
		{"XGBackend", func(t *testing.T) sessionView {
			s := baselines.NewXGBackend(cg.pda, cg.cache, info.Raw(), "").NewSession()
			core, ok := s.(xgCore)
			if !ok {
				t.Fatalf("XGBackend session %T lacks rollback/fork", s)
			}
			return xgView{core, s.FillMask, info.VocabSize()}
		}},
	}

	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	acceptAll := func(t *testing.T, v sessionView, ids []int32) {
		t.Helper()
		for _, id := range ids {
			must(t, v.accept(id))
		}
	}
	// Each scenario returns the masks it observed, compared across views.
	scenarios := []struct {
		name string
		run  func(t *testing.T, v sessionView) [][]uint64
	}{
		{"accept", func(t *testing.T, v sessionView) [][]uint64 {
			var masks [][]uint64
			for i, id := range doc {
				m := v.mask()
				if !bitSet(m, id) {
					t.Fatalf("token %d of the document is masked out", i)
				}
				if v.canTerminate() || bitSet(m, eos) {
					t.Fatalf("stop allowed before the document is complete (token %d)", i)
				}
				masks = append(masks, m)
				must(t, v.accept(id))
			}
			if !v.canTerminate() || !bitSet(v.mask(), eos) {
				t.Fatal("stop not allowed after a complete document")
			}
			if err := v.accept(info.Encode(`}`)[0]); err == nil {
				t.Fatal("token past the document's end accepted")
			}
			return append(masks, v.mask())
		}},
		{"eos", func(t *testing.T, v sessionView) [][]uint64 {
			if err := v.accept(eos); err == nil {
				t.Fatal("stop token accepted before completion")
			}
			if v.isTerminated() {
				t.Fatal("failed stop token terminated the session")
			}
			acceptAll(t, v, doc)
			if !v.canTerminate() {
				t.Fatal("CanTerminate false before the stop token")
			}
			must(t, v.accept(eos))
			if !v.isTerminated() {
				t.Fatal("IsTerminated false after the stop token")
			}
			if v.canTerminate() {
				t.Fatal("CanTerminate true after the stop token")
			}
			if v.accept(eos) == nil || v.accept(doc[0]) == nil || v.acceptString(" ") == nil {
				t.Fatal("input accepted after termination")
			}
			if jf := v.jumpForward(); jf != "" {
				t.Fatalf("jump-forward %q after termination", jf)
			}
			m := v.mask()
			if !zeroMask(m) {
				t.Fatal("mask after termination is not empty")
			}
			return [][]uint64{m}
		}},
		{"special", func(t *testing.T, v sessionView) [][]uint64 {
			m := v.mask()
			for id := int32(0); id < int32(info.VocabSize()); id++ {
				if info.IsSpecial(id) && bitSet(m, id) {
					t.Fatalf("special token %d allowed at the start", id)
				}
			}
			if err := v.accept(special); err == nil {
				t.Fatalf("special token %d accepted", special)
			}
			acceptAll(t, v, doc)
			if err := v.accept(special); err == nil {
				t.Fatalf("special token %d accepted where stop is legal", special)
			}
			done := v.mask()
			if bitSet(done, special) || !bitSet(done, eos) {
				t.Fatal("complete-document mask: want stop allowed and other specials masked")
			}
			return [][]uint64{m, done}
		}},
		{"rollback over EOS", func(t *testing.T, v sessionView) [][]uint64 {
			acceptAll(t, v, doc)
			before := v.mask()
			must(t, v.accept(eos))
			must(t, v.rollback(1))
			if v.isTerminated() || !v.canTerminate() {
				t.Fatal("rolling back the stop token did not reopen the session")
			}
			after := v.mask()
			if !masksEqual(before, after) {
				t.Fatal("mask after rolling back the stop token differs")
			}
			must(t, v.accept(eos))
			must(t, v.rollback(2)) // the stop token and the last document token
			if v.isTerminated() || v.canTerminate() {
				t.Fatal("rolling back over the stop token and the last token left a complete document")
			}
			must(t, v.accept(doc[len(doc)-1]))
			must(t, v.accept(eos))
			return [][]uint64{before, after}
		}},
		{"jump-forward", func(t *testing.T, v sessionView) [][]uint64 {
			must(t, v.acceptString(`{"a": [1, tr`))
			before := v.mask()
			jf := v.jumpForward()
			if jf != "ue" {
				t.Fatalf("jump-forward after `tr` = %q, want \"ue\"", jf)
			}
			must(t, v.acceptString(jf))
			inserted := v.mask()
			must(t, v.rollback(1))
			if got := v.jumpForward(); got != jf {
				t.Fatalf("jump-forward after rollback = %q, want %q", got, jf)
			}
			if !masksEqual(before, v.mask()) {
				t.Fatal("mask after rolling back the insertion differs")
			}
			return [][]uint64{before, inserted}
		}},
		{"branch and discard", func(t *testing.T, v sessionView) [][]uint64 {
			must(t, v.acceptString(`{"k": `))
			before := v.mask()
			b := v.branch()
			if !masksEqual(before, b.mask()) {
				t.Fatal("branch mask differs from its origin")
			}
			must(t, b.acceptString(`true}`))
			if !b.canTerminate() || v.canTerminate() {
				t.Fatal("branch and origin did not evolve independently")
			}
			must(t, b.accept(eos))
			b.discard()
			if !masksEqual(before, v.mask()) {
				t.Fatal("origin mask changed by its branch")
			}
			must(t, v.acceptString(`[1]}`))
			if !v.canTerminate() {
				t.Fatal("origin cannot complete after its branch was discarded")
			}
			return [][]uint64{before}
		}},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var want [][]uint64
			var wantFrom string
			for _, view := range views {
				created, reused := cg.SessionPoolStats()
				var got [][]uint64
				passed := t.Run(view.name, func(t *testing.T) {
					v := view.open(t)
					if ev, ok := v.(engineView); ok {
						defer ev.s.Close()
					}
					got = sc.run(t, v)
				})
				if n := cg.SessionsOutstanding(); n != 0 {
					t.Fatalf("%s: %d sessions outstanding", view.name, n)
				}
				if c, r := cg.SessionPoolStats(); view.name != "EngineSession" && (c != created || r != reused) {
					t.Fatalf("%s entered the grammar's session pool", view.name)
				}
				switch {
				case !passed:
				case wantFrom == "":
					want, wantFrom = got, view.name
				case len(got) != len(want):
					t.Fatalf("%s observed %d masks, %s %d", view.name, len(got), wantFrom, len(want))
				default:
					for k := range got {
						if !masksEqual(got[k], want[k]) {
							t.Fatalf("%s mask %d differs from %s", view.name, k, wantFrom)
						}
					}
				}
			}
		})
	}
}
