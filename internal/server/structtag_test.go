package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"xgrammar"
	"xgrammar/internal/server"
)

const tagSchemaA = `{"type": "object", "properties": {
	"city": {"type": "string", "maxLength": 8}, "days": {"type": "integer", "minimum": 1, "maximum": 14}},
	"required": ["city", "days"]}`

const tagSchemaB = `{"type": "object", "properties": {
	"query": {"type": "string", "maxLength": 10}},
	"required": ["query"]}`

// tagsBody builds a two-tag generate request body.
func tagsBody(seed int64, maxTokens int, extra map[string]any) map[string]any {
	body := map[string]any{
		"structural_tags": []map[string]any{
			{"begin": "<weather>", "end": "</weather>", "schema": json.RawMessage(tagSchemaA)},
			{"begin": "<search>", "end": "</search>", "schema": json.RawMessage(tagSchemaB)},
		},
		"seed":       seed,
		"max_tokens": maxTokens,
	}
	for k, v := range extra {
		body[k] = v
	}
	return body
}

// extractSegments returns the content between each begin/end pair in text,
// failing on an unterminated segment unless the generation was cut by the
// token budget.
func extractSegments(t *testing.T, text, begin, end, finish string) []string {
	t.Helper()
	var out []string
	rest := text
	for {
		i := strings.Index(rest, begin)
		if i < 0 {
			return out
		}
		rest = rest[i+len(begin):]
		j := strings.Index(rest, end)
		if j < 0 {
			if finish == server.FinishLength || finish == server.FinishShutdown {
				return out // budget ran out mid-segment
			}
			t.Fatalf("unterminated %s segment in %q (finish %q)", begin, text, finish)
		}
		out = append(out, rest[:j])
		rest = rest[j+len(end):]
	}
}

// generateTags posts a structural-tag generation and decodes the response.
func generateTags(t *testing.T, url string, body map[string]any) server.GenerateResponse {
	t.Helper()
	resp, data := postJSON(t, url+"/v1/generate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate: %d %s", resp.StatusCode, data)
	}
	var out server.GenerateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// findToolCallSeed locates a seed whose generation contains at least two
// completed tagged segments — outputs are deterministic per (seed,
// tokenizer), so the scan is deterministic too.
func findToolCallSeed(t *testing.T, url string, maxTokens int) (int64, server.GenerateResponse) {
	t.Helper()
	for seed := int64(1); seed <= 40; seed++ {
		out := generateTags(t, url, tagsBody(seed, maxTokens, nil))
		if out.Segments >= 2 {
			return seed, out
		}
	}
	t.Fatal("no seed in [1,40] produced two tagged segments")
	return 0, server.GenerateResponse{}
}

// TestStructuralTagsGeneration is the end-to-end acceptance path: a
// /v1/generate request with two structural tags must produce output whose
// every tagged segment parses under its schema while free text runs
// unconstrained.
func TestStructuralTagsGeneration(t *testing.T) {
	ts, _, _ := gateway(t, "", false, server.Config{MaxTokens: 400})
	_, out := findToolCallSeed(t, ts.URL, 300)

	total := 0
	for _, tag := range []struct{ begin, end, schema string }{
		{"<weather>", "</weather>", tagSchemaA},
		{"<search>", "</search>", tagSchemaB},
	} {
		segs := extractSegments(t, out.Text, tag.begin, tag.end, out.FinishReason)
		for _, seg := range segs {
			var v map[string]any
			if err := json.Unmarshal([]byte(seg), &v); err != nil {
				t.Errorf("segment %s%s%s does not parse: %v", tag.begin, seg, tag.end, err)
			}
		}
		total += len(segs)
	}
	if total < 2 {
		t.Fatalf("expected >= 2 completed segments, got %d in %q", total, out.Text)
	}
	if out.Segments != total {
		t.Errorf("response segments %d != observed completed segments %d", out.Segments, total)
	}
	// The metrics endpoint reports per-phase activity.
	m := getMetrics(t, ts.URL)
	st := m.StructuralTags
	if st.Requests == 0 || st.SegmentsOpened < int64(total) || st.TagTokens == 0 || st.TriggerBytes == 0 {
		t.Fatalf("structural-tag metrics did not move: %+v", st)
	}
	if st.SegmentsClosed > st.SegmentsOpened {
		t.Fatalf("more segments closed than opened: %+v", st)
	}
}

// TestStructuralTagsSpeculativeByteIdentical pins the acceptance criterion:
// the same structural-tag request decodes byte-identically with and without
// speculative decoding for the same seed (speculation runs inside tag
// segments; free text decodes plainly either way).
func TestStructuralTagsSpeculativeByteIdentical(t *testing.T) {
	ts, _, _ := gateway(t, "", false, server.Config{MaxTokens: 400})
	seed, plain := findToolCallSeed(t, ts.URL, 300)
	specOut := generateTags(t, ts.URL, tagsBody(seed, 300, map[string]any{
		"speculative": map[string]any{"draft_tokens": 4},
	}))
	if specOut.Text != plain.Text {
		t.Fatalf("speculative output differs from plain for seed %d:\nplain: %q\nspec:  %q", seed, plain.Text, specOut.Text)
	}
	if specOut.Segments != plain.Segments || specOut.FinishReason != plain.FinishReason {
		t.Fatalf("speculative summary differs: %+v vs %+v", specOut, plain)
	}
	// Speculation must actually have run inside the tag segments (free text
	// decodes plainly, so all proposals come from in-segment rounds).
	// Acceptance itself can legitimately be zero here: the uniform verdict
	// sampler rarely matches a greedy draft once jump-forward has consumed
	// the forced positions.
	m := getMetrics(t, ts.URL)
	if m.Speculative.ProposedTokens == 0 {
		t.Error("no speculative proposals inside tag segments")
	}
}

// TestToolsConvenienceForm exercises the OpenAI-style tools request shape.
func TestToolsConvenienceForm(t *testing.T) {
	ts, _, _ := gateway(t, "", false, server.Config{MaxTokens: 400})
	for seed := int64(1); seed <= 40; seed++ {
		out := generateTags(t, ts.URL, map[string]any{
			"tools": []map[string]any{{
				"type": "function",
				"function": map[string]any{
					"name":       "get_weather",
					"parameters": json.RawMessage(tagSchemaA),
				},
			}},
			"seed":       seed,
			"max_tokens": 300,
		})
		if out.Segments == 0 {
			continue
		}
		begin := `<tool_call name="get_weather">`
		segs := extractSegments(t, out.Text, begin, "</tool_call>", out.FinishReason)
		if len(segs) == 0 {
			t.Fatalf("segments reported but no %q span found in %q", begin, out.Text)
		}
		for _, seg := range segs {
			var v struct {
				City string `json:"city"`
				Days int    `json:"days"`
			}
			if err := json.Unmarshal([]byte(seg), &v); err != nil {
				t.Fatalf("tool call %q does not parse under the parameter schema: %v", seg, err)
			}
			if v.Days < 1 || v.Days > 14 {
				t.Fatalf("tool call %q violates the integer bounds", seg)
			}
		}
		return
	}
	t.Fatal("no seed produced a completed tool call")
}

// TestStructuralTagsByGrammarID references a registered grammar from a
// structural tag, and pins the error for unknown IDs.
func TestStructuralTagsByGrammarID(t *testing.T) {
	ts, _, _ := gateway(t, "", false, server.Config{MaxTokens: 300})
	resp, data := postJSON(t, ts.URL+"/v1/grammars", server.GrammarRequest{
		Kind: "json_schema", Source: tagSchemaB,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, data)
	}
	var reg server.GrammarResponse
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	body := map[string]any{
		"structural_tags": []map[string]any{
			{"begin": "<s>", "end": "</s>", "grammar_id": reg.ID},
		},
		"seed": 11, "max_tokens": 200,
	}
	out := generateTags(t, ts.URL, body)
	if out.FinishReason == "" {
		t.Fatal("no finish reason")
	}
	// Unknown grammar ID is a loud 404.
	body["structural_tags"] = []map[string]any{{"begin": "<s>", "end": "</s>", "grammar_id": "feedbeef"}}
	resp, data = postJSON(t, ts.URL+"/v1/generate", body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown grammar_id: got %d %s, want 404", resp.StatusCode, data)
	}
}

func TestStructuralTagsValidation(t *testing.T) {
	ts, _, _ := gateway(t, "", false, server.Config{MaxTokens: 100})
	cases := []map[string]any{
		// Tags and whole-completion grammar are exclusive.
		tagsBody(1, 50, map[string]any{"kind": "builtin", "source": "json"}),
		// begin/end required.
		{"structural_tags": []map[string]any{{"begin": "", "end": "</x>", "schema": json.RawMessage(`true`)}}},
		// schema or grammar_id required.
		{"structural_tags": []map[string]any{{"begin": "<x>", "end": "</x>"}}},
		// Unsupported tool type.
		{"tools": []map[string]any{{"type": "retrieval", "function": map[string]any{"name": "f"}}}},
	}
	for i, body := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/generate", body)
		if resp.StatusCode == http.StatusOK {
			t.Errorf("case %d accepted: %s", i, data)
		}
	}
}

// TestClientDisconnectMidStream is the leak regression: a client dropping
// an SSE stream mid-generation must leave the continuous batch, return its
// pooled session, release its admission slot, and keep /metrics consistent.
func TestClientDisconnectMidStream(t *testing.T) {
	ts, _, comp := gateway(t, "", false, server.Config{
		MaxTokens: 4096,
		GPUStep:   2 * time.Millisecond, // paced so the stream is alive when we drop it
	})
	// A grammar that cannot terminate for a long time, so the generation is
	// guaranteed to outlive the disconnect.
	longSchema := `{"type": "array", "items": {"type": "integer"}, "minItems": 2000}`
	ctx, cancel := context.WithCancel(context.Background())
	body := fmt.Sprintf(`{"kind": "json_schema", "source": %q, "stream": true, "max_tokens": 4096, "seed": 5}`, longSchema)
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/generate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a first chunk to be sure the generation joined the batch.
	buf := make([]byte, 256)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("no stream data before disconnect: %v", err)
	}
	m := getMetrics(t, ts.URL)
	if m.LiveBatch == 0 {
		t.Fatal("generation not live before disconnect")
	}
	cancel() // drop the client mid-stream
	resp.Body.Close()

	// The batcher notices the dead context on its next round and retires the
	// sequence; the handler unwinds and releases the admission slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		m = getMetrics(t, ts.URL)
		if m.LiveBatch == 0 && m.Inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnect leaked: live_batch=%d inflight=%d", m.LiveBatch, m.Inflight)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The canceled sequence's pooled session must be back in its pool, and
	// the same grammar must keep serving without leaking one either.
	cg, err := comp.CompileJSONSchema([]byte(longSchema), xgrammar.SchemaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := cg.SessionsOutstanding(); n != 0 {
		t.Fatalf("canceled session did not return to the pool: %d outstanding", n)
	}
	resp2, data := postJSON(t, ts.URL+"/v1/generate", map[string]any{
		"kind": "json_schema", "source": longSchema, "max_tokens": 3, "seed": 6,
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect request failed: %d %s", resp2.StatusCode, data)
	}
	if n := cg.SessionsOutstanding(); n != 0 {
		t.Fatalf("post-disconnect request leaked a session: %d outstanding", n)
	}
	// No admission slots leaked: counters settled and consistent.
	m = getMetrics(t, ts.URL)
	if m.Inflight != 0 || m.LiveBatch != 0 {
		t.Fatalf("metrics inconsistent after disconnect: %+v", m)
	}
	if m.Rejected != 0 {
		t.Fatalf("spurious rejections: %+v", m)
	}
}

// TestStructuralTagStreamDisconnect runs the disconnect path on a
// structural-tag stream: the dispatcher session (and any active segment
// session) must be released and the tag gauges stay consistent.
func TestStructuralTagStreamDisconnect(t *testing.T) {
	ts, srv, _ := gateway(t, "", false, server.Config{
		MaxTokens: 4096,
		GPUStep:   2 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	data, err := json.Marshal(tagsBody(9, 4096, map[string]any{"stream": true}))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/generate", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if _, err := resp.Body.Read(buf); err != nil && err != io.EOF {
		t.Fatalf("no stream data: %v", err)
	}
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := getMetrics(t, ts.URL)
		if m.LiveBatch == 0 && m.Inflight == 0 {
			if m.StructuralTags.SegmentsClosed > m.StructuralTags.SegmentsOpened {
				t.Fatalf("tag gauges inconsistent: %+v", m.StructuralTags)
			}
			if n := srv.TagSessionsOutstanding(); n != 0 {
				t.Fatalf("tag stream disconnect leaked %d dispatcher/segment sessions", n)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tag stream disconnect leaked: %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
