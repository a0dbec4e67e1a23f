package tokenizer

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"xgrammar/internal/corpus"
)

func small(t *testing.T) *Tokenizer {
	t.Helper()
	return Train(corpus.Default(1<<16), 600)
}

func TestBaseVocabulary(t *testing.T) {
	tk := newBase()
	tk.finish()
	if tk.VocabSize() != NumSpecial+256 {
		t.Fatalf("base vocab = %d", tk.VocabSize())
	}
	for b := 0; b < 256; b++ {
		id := tk.byteID[b]
		got := tk.TokenBytes(id)
		if len(got) != 1 || got[0] != byte(b) {
			t.Fatalf("byte token %d wrong: %v", b, got)
		}
	}
}

func TestTrainGrowsVocab(t *testing.T) {
	tk := small(t)
	if tk.VocabSize() != 600 {
		t.Fatalf("vocab = %d, want 600", tk.VocabSize())
	}
	st := tk.ComputeStats()
	if st.MultiByte < 200 {
		t.Fatalf("too few multi-byte tokens: %+v", st)
	}
	if st.MaxTokenLen > maxTokenBytes {
		t.Fatalf("token longer than cap: %+v", st)
	}
	if st.AvgTokenLen <= 1.0 {
		t.Fatalf("avg length degenerate: %+v", st)
	}
}

func TestTrainDeterministic(t *testing.T) {
	c := corpus.Default(1 << 15)
	a := Train(c, 500)
	b := Train(c, 500)
	if a.VocabSize() != b.VocabSize() {
		t.Fatal("vocab sizes differ")
	}
	for i := 0; i < a.VocabSize(); i++ {
		if !bytes.Equal(a.TokenBytes(int32(i)), b.TokenBytes(int32(i))) {
			t.Fatalf("token %d differs: %q vs %q", i, a.TokenBytes(int32(i)), b.TokenBytes(int32(i)))
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tk := small(t)
	cases := []string{
		"hello world",
		`{"name": "bob", "age": 42}`,
		"for i in range(10):",
		"",
		"émoji: 😀 日本語",
		"\x00\x01\xff binary bytes",
		strings.Repeat("a", 100),
	}
	for _, s := range cases {
		ids := tk.Encode(s)
		got := string(tk.Decode(ids))
		if got != s {
			t.Errorf("round trip failed: %q -> %q", s, got)
		}
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	tk := small(t)
	f := func(b []byte) bool {
		s := string(b)
		return string(tk.Decode(tk.Encode(s))) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeUsesMerges(t *testing.T) {
	tk := small(t)
	// A common word should encode to far fewer tokens than its byte length.
	ids := tk.Encode("the value of the string")
	if len(ids) >= len("the value of the string") {
		t.Fatalf("no compression: %d tokens for %d bytes", len(ids), len("the value of the string"))
	}
}

func TestTokensCrossJSONBoundaries(t *testing.T) {
	// The grammar-relevant property: some learned tokens span multiple JSON
	// grammar elements (like `":` or `, "`).
	tk := Train(corpus.Default(1<<18), 2000)
	cross := 0
	for id := int32(NumSpecial); id < int32(tk.VocabSize()); id++ {
		b := tk.TokenBytes(id)
		if len(b) >= 2 && bytes.ContainsAny(b, `{}[],:"`) {
			cross++
		}
	}
	if cross < 20 {
		t.Fatalf("only %d boundary-crossing tokens; vocabulary unrealistic", cross)
	}
}

func TestSortedRegularIDs(t *testing.T) {
	tk := small(t)
	ids := tk.SortedRegularIDs()
	if len(ids) != tk.VocabSize()-NumSpecial {
		t.Fatalf("sorted len = %d", len(ids))
	}
	if !sort.SliceIsSorted(ids, func(i, j int) bool {
		return bytes.Compare(tk.TokenBytes(ids[i]), tk.TokenBytes(ids[j])) < 0
	}) {
		t.Fatal("not sorted by bytes")
	}
	for _, id := range ids {
		if tk.IsSpecial(id) {
			t.Fatal("special token in regular list")
		}
	}
}

func TestSpecialHandling(t *testing.T) {
	tk := small(t)
	if !tk.IsSpecial(PadID) || !tk.IsSpecial(EosID) || tk.IsSpecial(NumSpecial) {
		t.Fatal("IsSpecial wrong")
	}
	if got := tk.StopIDs(); len(got) != 1 || got[0] != EosID {
		t.Fatalf("StopIDs = %v", got)
	}
	if out := tk.Decode([]int32{BosID, tk.byteID['h'], EosID}); string(out) != "h" {
		t.Fatalf("Decode with specials = %q", out)
	}
}

func TestPretokenizeShapes(t *testing.T) {
	var words []string
	pretokenize(`He said: "count 123 items".`+"\n\n", func(w string) { words = append(words, w) })
	joined := strings.Join(words, "|")
	// Leading spaces must attach to the following run.
	for _, want := range []string{" said", " 123", " items"} {
		found := false
		for _, w := range words {
			if w == want {
				found = true
			}
		}
		if !found {
			t.Errorf("word %q missing in %q", want, joined)
		}
	}
	if got := strings.Join(words, ""); got != `He said: "count 123 items".`+"\n\n" {
		t.Fatalf("pretokenize lost bytes: %q", got)
	}
}

func TestEncodeWordCacheConsistent(t *testing.T) {
	tk := small(t)
	a := tk.Encode("hello hello hello")
	b := tk.Encode("hello hello hello")
	if len(a) != len(b) {
		t.Fatal("cache changed encoding")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("cache changed encoding")
		}
	}
}

func TestBuildDefaultCached(t *testing.T) {
	a := BuildDefault(400)
	b := BuildDefault(400)
	if a != b {
		t.Fatal("BuildDefault not cached")
	}
	if a.VocabSize() != 400 {
		t.Fatalf("vocab = %d", a.VocabSize())
	}
}

func BenchmarkEncode(b *testing.B) {
	tk := BuildDefault(4000)
	text := corpus.Default(1 << 12)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Encode(text)
	}
}

func BenchmarkTrain8k(b *testing.B) {
	c := corpus.Default(1 << 18)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(c, 8192)
	}
}

// TestDefaultFingerprintPinned fixes the default tokenizer's vocabulary at
// every size the repository trains (tests, quick mode, the benchmark):
// a change to the training corpus or the BPE trainer moves these values and
// with them every cached mask, stored grammar blob and recorded figure.
func TestDefaultFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		size int
		want uint64
	}{
		{600, 0x3522278e3f76b8d1},
		{2000, 0x818012c14235ab25},
		{4000, 0xdb17fbdafa3a3191},
		{8000, 0x4d16c22d37f16ea2},
		{32000, 0x5edb0b0237f8f131},
	} {
		if got := BuildDefault(c.size).Fingerprint(); got != c.want {
			t.Errorf("BuildDefault(%d).Fingerprint() = %016x, want %016x", c.size, got, c.want)
		}
	}
}
