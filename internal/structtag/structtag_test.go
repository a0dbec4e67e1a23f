package structtag_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xgrammar"
	"xgrammar/internal/structtag"
)

const intSchema = `{
	"type": "object",
	"properties": {"a": {"type": "integer", "minimum": 0, "maximum": 99}},
	"required": ["a"]
}`

const strSchema = `{
	"type": "object",
	"properties": {"q": {"type": "string", "maxLength": 6}},
	"required": ["q"]
}`

var (
	setupOnce sync.Once
	testInfo  *xgrammar.TokenizerInfo
	testComp  *xgrammar.Compiler
	testSet   *structtag.Set
	testTags  *xgrammar.CompiledTagSet
)

// setup compiles a two-tag set shared by the tests: <t>…</t> carrying
// intSchema and <q>…</q> carrying strSchema.
func setup(t *testing.T) {
	t.Helper()
	setupOnce.Do(func() {
		testInfo = xgrammar.DefaultTokenizer(2000)
		testComp = xgrammar.NewCompiler(testInfo)
		ts, err := testComp.CompileStructuralTags(xgrammar.StructuralTags{
			{Begin: "<t>", Grammar: xgrammar.GrammarSpec{Kind: xgrammar.KindJSONSchema, Source: intSchema}, End: "</t>"},
			{Begin: "<q>", Grammar: xgrammar.GrammarSpec{Kind: xgrammar.KindJSONSchema, Source: strSchema}, End: "</q>"},
		})
		if err != nil {
			panic(err)
		}
		testTags = ts
		testSet = ts.Dispatch()
	})
	if testSet == nil {
		t.Fatal("setup failed")
	}
}

func maskEqual(a, b []uint64) bool {
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

// oracle returns a fresh session advanced over the byte stream in one
// checkpoint — dispatcher state is a pure function of the stream, so any
// chunking must land in the same mode with the same mask.
func oracle(t *testing.T, stream []byte) *structtag.Session {
	t.Helper()
	o := testSet.Acquire()
	if len(stream) > 0 {
		if err := o.AcceptString(string(stream)); err != nil {
			t.Fatalf("oracle rejected accepted stream %q: %v", stream, err)
		}
	}
	o.Fill()
	return o
}

// checkAgainstOracle compares a session's observable state with a fresh
// session fed the same bytes.
func checkAgainstOracle(t *testing.T, s *structtag.Session, context string) {
	t.Helper()
	o := oracle(t, s.Bytes())
	defer o.Close()
	s.Fill()
	if s.InTag() != o.InTag() || s.TagIndex() != o.TagIndex() {
		t.Fatalf("%s: mode (%v, %d) != oracle (%v, %d) for stream %q",
			context, s.InTag(), s.TagIndex(), o.InTag(), o.TagIndex(), s.Bytes())
	}
	if s.CanTerminate() != o.CanTerminate() {
		t.Fatalf("%s: CanTerminate %v != oracle %v for stream %q", context, s.CanTerminate(), o.CanTerminate(), s.Bytes())
	}
	if !maskEqual(s.Mask(), o.Mask()) {
		t.Fatalf("%s: mask diverges from oracle for stream %q (in tag: %v)", context, s.Bytes(), s.InTag())
	}
}

func TestFreeTagFreeRoundTrip(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	if s.InTag() {
		t.Fatal("fresh session not in free mode")
	}
	if err := s.AcceptString("some prose "); err != nil {
		t.Fatal(err)
	}
	if s.InTag() || !s.CanTerminate() {
		t.Fatal("free text flipped mode")
	}
	if err := s.AcceptString("<t>"); err != nil {
		t.Fatal(err)
	}
	if !s.InTag() || s.TagIndex() != 0 {
		t.Fatalf("begin tag did not enter tag 0 (in tag %v, idx %d)", s.InTag(), s.TagIndex())
	}
	if s.CanTerminate() {
		t.Fatal("EOS legal inside a segment")
	}
	if err := s.AcceptString(`{"a": 7}`); err != nil {
		t.Fatal(err)
	}
	if !s.InTag() {
		t.Fatal("left tag before the end tag")
	}
	if err := s.AcceptString("</t>"); err != nil {
		t.Fatal(err)
	}
	if s.InTag() {
		t.Fatal("end tag did not return to free text")
	}
	if err := s.AcceptString(" and more prose, then a second call <q>"); err != nil {
		t.Fatal(err)
	}
	if !s.InTag() || s.TagIndex() != 1 {
		t.Fatalf("second tag not entered (in tag %v, idx %d)", s.InTag(), s.TagIndex())
	}
	if err := s.AcceptString(`{"q": "hi"}</q>`); err != nil {
		t.Fatal(err)
	}
	if s.InTag() {
		t.Fatal("second segment did not close")
	}
	if err := s.Accept(testInfo.EOSTokenID()); err != nil {
		t.Fatal(err)
	}
	if !s.IsTerminated() {
		t.Fatal("EOS did not terminate")
	}
}

func TestMidTokenEntryAndExit(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	// One step whose bytes cross free → tag.
	if err := s.AcceptString(`x<t>{`); err != nil {
		t.Fatal(err)
	}
	if !s.InTag() {
		t.Fatal("mid-chunk entry missed")
	}
	checkAgainstOracle(t, s, "mid-token entry")
	// One step whose bytes cross tag → free (segment end plus trailing
	// prose) — the byte-wise fallback path.
	if err := s.AcceptString(`"a": 4}</t> done`); err != nil {
		t.Fatal(err)
	}
	if s.InTag() {
		t.Fatal("mid-chunk exit missed")
	}
	checkAgainstOracle(t, s, "mid-token exit")
}

func TestFreeMaskAllowsEverythingRegular(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	s.Fill()
	mask := s.Mask()
	eos := testInfo.EOSTokenID()
	if mask[eos>>6]&(1<<uint(eos&63)) == 0 {
		t.Fatal("EOS not allowed in free text")
	}
	allowed := 0
	for id := 0; id < testInfo.VocabSize(); id++ {
		if mask[id>>6]&(1<<uint(id&63)) != 0 {
			allowed++
		}
	}
	// Every regular token plus EOS; pad and bos cleared.
	if allowed != testInfo.VocabSize()-2 {
		t.Fatalf("free mask allows %d of %d tokens", allowed, testInfo.VocabSize())
	}
	// In-tag masks clear EOS.
	if err := s.AcceptString("<t>"); err != nil {
		t.Fatal(err)
	}
	s.Fill()
	if s.Mask()[eos>>6]&(1<<uint(eos&63)) != 0 {
		t.Fatal("EOS allowed inside a segment")
	}
}

func TestSegmentMaskConstrains(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	if err := s.AcceptString(`<t>{"a": `); err != nil {
		t.Fatal(err)
	}
	s.Fill()
	mask := s.Mask()
	// Only digits can follow; a letter token must be masked out.
	bad := testInfo.Encode("x")[0]
	if mask[bad>>6]&(1<<uint(bad&63)) != 0 {
		t.Fatal("segment mask allows a letter where the schema needs a digit")
	}
}

func TestJumpForwardInsideSegment(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	if s.JumpForward() != "" {
		t.Fatal("free text reported a deterministic continuation")
	}
	if err := s.AcceptString("<t>"); err != nil {
		t.Fatal(err)
	}
	jf := s.JumpForward()
	if !strings.HasPrefix(jf, `{"a": `) {
		t.Fatalf("jump-forward inside segment = %q, want the forced object prefix", jf)
	}
	if err := s.AcceptString(jf); err != nil {
		t.Fatalf("inserting own jump-forward failed: %v", err)
	}
	// After the integer, the continuation is the closing brace + end tag.
	if err := s.AcceptString("42"); err != nil {
		t.Fatal(err)
	}
	jf = s.JumpForward()
	if jf != "}</t>" {
		t.Fatalf("jump-forward at segment end = %q, want \"}</t>\"", jf)
	}
	if err := s.AcceptString(jf); err != nil {
		t.Fatal(err)
	}
	if s.InTag() {
		t.Fatal("jump-forward through the end tag did not close the segment")
	}
}

func TestRollbackWithinFreeText(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	for _, chunk := range []string{"ab", "c<", "t"} {
		if err := s.AcceptString(chunk); err != nil {
			t.Fatal(err)
		}
	}
	// Roll back "t" — the "<" trigger prefix must be live again.
	if err := s.Rollback(1); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, s, "free rollback")
	if err := s.AcceptString("q>"); err != nil {
		t.Fatal(err)
	}
	if !s.InTag() || s.TagIndex() != 1 {
		t.Fatal("trigger prefix lost across free-text rollback")
	}
}

func TestRollbackWithinSegment(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	if err := s.AcceptString("<t>"); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{`{"a"`, `: 1`, `2`} {
		if err := s.AcceptString(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Rollback(2); err != nil { // retract ": 1" and "2"
		t.Fatal(err)
	}
	checkAgainstOracle(t, s, "in-segment rollback")
	if err := s.AcceptString(`: 34}</t>`); err != nil {
		t.Fatal(err)
	}
	if s.InTag() {
		t.Fatal("segment did not close after rollback and re-accept")
	}
}

func TestRollbackAcrossEntry(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	if err := s.AcceptString("pre "); err != nil {
		t.Fatal(err)
	}
	if err := s.AcceptString("<t>"); err != nil {
		t.Fatal(err)
	}
	if err := s.AcceptString(`{"a": 5`); err != nil {
		t.Fatal(err)
	}
	// Retract the segment content and the entry itself.
	if err := s.Rollback(2); err != nil {
		t.Fatal(err)
	}
	if s.InTag() {
		t.Fatal("rollback across entry left the session in tag mode")
	}
	checkAgainstOracle(t, s, "rollback across entry")
	// The stream can now continue as plain free text.
	if err := s.AcceptString("no tag after all"); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, s, "free continuation after entry rollback")
}

func TestRollbackAcrossExit(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	if err := s.AcceptString(`<t>{"a": 5}`); err != nil {
		t.Fatal(err)
	}
	if err := s.AcceptString(`</t>`); err != nil {
		t.Fatal(err)
	}
	if err := s.AcceptString(` after`); err != nil {
		t.Fatal(err)
	}
	// Retract the trailing prose and the segment close: back inside the tag.
	if err := s.Rollback(2); err != nil {
		t.Fatal(err)
	}
	if !s.InTag() || s.TagIndex() != 0 {
		t.Fatal("rollback across exit did not re-enter the segment")
	}
	checkAgainstOracle(t, s, "rollback across exit")
	// Close it again and terminate.
	if err := s.AcceptString("</t>"); err != nil {
		t.Fatal(err)
	}
	if err := s.Accept(testInfo.EOSTokenID()); err != nil {
		t.Fatal(err)
	}
}

func TestFailedAcceptLeavesStateUnchanged(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	if err := s.AcceptString("hello "); err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), s.Bytes()...)
	s.Fill()
	maskBefore := append([]uint64(nil), s.Mask()...)
	// A chunk that completes the begin tag and then violates the schema.
	if err := s.AcceptString("<t>zzz"); err == nil {
		t.Fatal("illegal segment tail accepted")
	}
	if string(s.Bytes()) != string(before) {
		t.Fatalf("failed accept mutated the stream: %q -> %q", before, s.Bytes())
	}
	if s.InTag() {
		t.Fatal("failed accept left tag mode active")
	}
	s.Fill()
	if !maskEqual(s.Mask(), maskBefore) {
		t.Fatal("failed accept changed the mask")
	}
	// The session still works.
	if err := s.AcceptString(`<t>{"a": 1}</t>`); err != nil {
		t.Fatal(err)
	}
}

func TestEOSOnlyInFreeText(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	if err := s.AcceptString("<t>"); err != nil {
		t.Fatal(err)
	}
	if err := s.Accept(testInfo.EOSTokenID()); err == nil {
		t.Fatal("EOS accepted inside a segment")
	}
}

func TestSetValidation(t *testing.T) {
	setup(t)
	mk := func(begins ...string) error {
		var tags xgrammar.StructuralTags
		for _, b := range begins {
			tags = append(tags, xgrammar.StructuralTag{
				Begin:   b,
				Grammar: xgrammar.GrammarSpec{Kind: xgrammar.KindJSONSchema, Source: intSchema},
				End:     "</t>",
			})
		}
		_, err := testComp.CompileStructuralTags(tags)
		return err
	}
	if err := mk(); err == nil {
		t.Error("empty tag list compiled")
	}
	if err := mk(""); err == nil {
		t.Error("empty begin tag compiled")
	}
	if err := mk("<a>", "<a>b"); err == nil {
		t.Error("prefix-overlapping begin tags compiled")
	}
	if err := mk("<a>", "<b>"); err != nil {
		t.Errorf("valid tag set rejected: %v", err)
	}
}

// TestRandomWalkAgainstOracle drives a session with random mask-legal
// tokens and random rollbacks, comparing the observable state against a
// fresh session fed the same byte stream after every operation. This is the
// dispatch-state soundness test: mode, masks, and termination must be a
// pure function of the accepted stream no matter how it was chunked,
// rolled back, or replayed.
func TestRandomWalkAgainstOracle(t *testing.T) {
	setup(t)
	rng := rand.New(rand.NewSource(7))
	eos := testInfo.EOSTokenID()
	for trial := 0; trial < 8; trial++ {
		s := testSet.Acquire()
		var stepBytes []int // bytes per accepted step, for mirror truncation
		var allowed []int32
		for op := 0; op < 120; op++ {
			// Occasionally force progress toward a tag so segments happen.
			if !s.InTag() && rng.Intn(10) == 0 {
				begin := testSet.Tags()[rng.Intn(2)].Begin
				if err := s.AcceptString(begin); err != nil {
					t.Fatal(err)
				}
				stepBytes = append(stepBytes, len(begin))
				continue
			}
			if rng.Intn(6) == 0 && len(stepBytes) > 0 {
				n := rng.Intn(min(len(stepBytes), s.HistoryCap())) + 1
				if err := s.Rollback(n); err != nil {
					t.Fatal(err)
				}
				stepBytes = stepBytes[:len(stepBytes)-n]
				checkAgainstOracle(t, s, fmt.Sprintf("trial %d op %d rollback %d", trial, op, n))
				continue
			}
			s.Fill()
			mask := s.Mask()
			allowed = allowed[:0]
			for id := int32(0); int(id) < testInfo.VocabSize(); id++ {
				if id != eos && mask[id>>6]&(1<<uint(id&63)) != 0 {
					allowed = append(allowed, id)
				}
			}
			if len(allowed) == 0 {
				t.Fatalf("trial %d op %d: empty mask (in tag %v)", trial, op, s.InTag())
			}
			id := allowed[rng.Intn(len(allowed))]
			before := len(s.Bytes())
			if err := s.Accept(id); err != nil {
				t.Fatalf("trial %d op %d: mask-legal token %d (%q) rejected: %v",
					trial, op, id, testInfo.TokenBytes(id), err)
			}
			stepBytes = append(stepBytes, len(s.Bytes())-before)
			if op%10 == 0 {
				checkAgainstOracle(t, s, fmt.Sprintf("trial %d op %d accept", trial, op))
			}
		}
		checkAgainstOracle(t, s, fmt.Sprintf("trial %d end", trial))
		s.Close()
	}
}

// TestTaggedSegmentsParse drives a full scripted generation and checks every
// tagged segment parses under its schema.
func TestTaggedSegmentsParse(t *testing.T) {
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	script := `thinking... <t>{"a": 12}</t> now a query <q>{"q": "books"}</q> bye`
	if err := s.AcceptString(script); err != nil {
		t.Fatal(err)
	}
	out := string(s.Bytes())
	for _, seg := range [][2]string{{"<t>", "</t>"}, {"<q>", "</q>"}} {
		i := strings.Index(out, seg[0])
		j := strings.Index(out, seg[1])
		if i < 0 || j < 0 {
			t.Fatalf("segment %s missing from %q", seg[0], out)
		}
		var v map[string]any
		if err := json.Unmarshal([]byte(out[i+len(seg[0]):j]), &v); err != nil {
			t.Fatalf("segment %s content does not parse: %v", seg[0], err)
		}
	}
}

func TestConcurrentSessions(t *testing.T) {
	setup(t)
	before := testSet.Outstanding()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 5; iter++ {
				s := testSet.Acquire()
				if err := s.AcceptString("go "); err != nil {
					panic(err)
				}
				if rng.Intn(2) == 0 {
					if err := s.AcceptString(`<t>{"a": 3}</t>`); err != nil {
						panic(err)
					}
				}
				s.Fill()
				s.Close()
			}
		}(int64(g))
	}
	wg.Wait()
	if n := testSet.Outstanding(); n != before {
		t.Fatalf("outstanding sessions %d -> %d after every session closed", before, n)
	}
}

// TestSteadyStateAllocs pins the 0-alloc hot path: free-text and in-segment
// Accept+Fill steps must not allocate once buffers have warmed up.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	setup(t)
	s := testSet.Acquire()
	defer s.Close()
	tok := testInfo.Encode("a")[0]
	// Warm up the byte buffer.
	for i := 0; i < 64; i++ {
		if err := s.Accept(tok); err != nil {
			t.Fatal(err)
		}
		s.Fill()
	}
	free := testing.AllocsPerRun(200, func() {
		if err := s.Accept(tok); err != nil {
			t.Fatal(err)
		}
		s.Fill()
	})
	if free > 0.1 {
		t.Errorf("free-text step allocates %.2f/op", free)
	}
	// A full tool-call cycle as sampled tokens (AcceptString is excluded:
	// its string-to-bytes conversion is the caller's allocation).
	script := testInfo.Encode(`<t>{"a": 1}</t>`)
	cycle := func() {
		for _, id := range script {
			if err := s.Accept(id); err != nil {
				t.Fatal(err)
			}
			s.Fill()
		}
	}
	for i := 0; i < 4; i++ {
		cycle() // warm segment pools and scratch
	}
	inTag := testing.AllocsPerRun(50, cycle)
	if inTag > 0.5 {
		t.Errorf("in-segment cycle allocates %.2f/op", inTag)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestRollbackDoesNotResurrectCandidatesFromSegmentBytes is the regression
// for the fast-path free-text rollback: trigger candidates must never be
// rebuilt from bytes that belonged to a just-closed segment (its content
// and end tag never fed the trie), or a rolled-back session diverges from
// a straight decode of the same stream. Tag begins "<a>" and "a>x" are
// prefix-free, but "a>" — the tail of "<a>"'s end tag "</a>" — is a proper
// prefix of "a>x".
func TestRollbackDoesNotResurrectCandidatesFromSegmentBytes(t *testing.T) {
	setup(t)
	info := xgrammar.DefaultTokenizer(2000)
	comp := xgrammar.NewCompiler(info)
	ts, err := comp.CompileStructuralTags(xgrammar.StructuralTags{
		{Begin: "<a>", Grammar: xgrammar.GrammarSpec{Kind: xgrammar.KindJSONSchema, Source: intSchema}, End: "</a>"},
		{Begin: "a>x", Grammar: xgrammar.GrammarSpec{Kind: xgrammar.KindJSONSchema, Source: intSchema}, End: "</x>"},
	})
	if err != nil {
		t.Fatal(err)
	}
	set := ts.Dispatch()
	s := set.Acquire()
	defer s.Close()
	if err := s.AcceptString(`<a>{"a": 1}</a>`); err != nil {
		t.Fatal(err)
	}
	if s.InTag() {
		t.Fatal("segment did not close")
	}
	// Two free steps, then a fast-path rollback (no transition in window).
	if err := s.AcceptString("q"); err != nil {
		t.Fatal(err)
	}
	if err := s.AcceptString("r"); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(2); err != nil {
		t.Fatal(err)
	}
	// "x" must stay free text: the "a>" suffix belongs to the closed
	// segment's end tag and must not combine into the "a>x" trigger.
	if err := s.AcceptString("x"); err != nil {
		t.Fatal(err)
	}
	if s.InTag() {
		t.Fatal("rollback resurrected a trigger candidate from segment bytes")
	}
	// And the full state matches a straight decode of the same stream.
	o := set.Acquire()
	defer o.Close()
	if err := o.AcceptString(string(s.Bytes())); err != nil {
		t.Fatal(err)
	}
	o.Fill()
	s.Fill()
	if o.InTag() != s.InTag() || !maskEqual(o.Mask(), s.Mask()) {
		t.Fatal("rolled-back session diverges from straight decode")
	}
}
