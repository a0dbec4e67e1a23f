package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"xgrammar/internal/backend"
	"xgrammar/internal/backend/httpllm"
	"xgrammar/internal/backend/simllm"
	"xgrammar/internal/llmsim"
	"xgrammar/internal/server"
	"xgrammar/internal/tokenizer"
)

// TestGatewayHTTPBackendEndToEnd serves /v1/generate through the HTTP
// model-backend adapter pointed at a loopback of the simulated sampler: the
// whole batching/dispatch path is unchanged, only the model hop crosses
// HTTP — so the output must be byte-identical to the in-process default
// backend at the same seed, and the per-backend metrics must attribute the
// request to "http".
func TestGatewayHTTPBackendEndToEnd(t *testing.T) {
	eos := testInfo(t).EOSTokenID()
	loop := httptest.NewServer(httpllm.NewLoopbackHandler(simllm.NewSampler(eos), httpllm.LoopbackOptions{}))
	defer loop.Close()

	ts, _, _ := gateway(t, "", false, server.Config{
		MaxInflight: 8, MaxTokens: 300,
		Backends: map[string]backend.Backend{"loop": httpllm.New(httpllm.Options{BaseURL: loop.URL})},
	})

	resp, body := postJSON(t, ts.URL+"/v1/grammars", server.GrammarRequest{Kind: "json_schema", Source: testSchema})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var reg server.GrammarResponse
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}

	gen := func(model string, seed int64) server.GenerateResponse {
		resp, body := postJSON(t, ts.URL+"/v1/generate", server.GenerateRequest{
			GrammarID: reg.ID, Model: model, Seed: seed,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("generate model=%q: %d %s", model, resp.StatusCode, body)
		}
		var r server.GenerateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}

	for _, seed := range []int64{7, 42} {
		viaHTTP := gen("loop", seed)
		inProc := gen("", seed)
		if viaHTTP.Text != inProc.Text {
			t.Fatalf("seed %d: HTTP-backend output diverged from in-proc:\n http: %q\nlocal: %q", seed, viaHTTP.Text, inProc.Text)
		}
		if viaHTTP.FinishReason != server.FinishStop {
			t.Fatalf("seed %d: finish_reason = %q, want stop", seed, viaHTTP.FinishReason)
		}
		assertValidInstance(t, viaHTTP.Text)
	}

	m := getMetrics(t, ts.URL)
	if m.Backends["http"].Requests != 2 {
		t.Fatalf("http backend requests = %d, want 2", m.Backends["http"].Requests)
	}
	if m.Backends["sim"].Requests != 2 {
		t.Fatalf("sim backend requests = %d, want 2", m.Backends["sim"].Requests)
	}
	if m.Backends["http"].Errors != 0 {
		t.Fatalf("http backend errors = %d, want 0", m.Backends["http"].Errors)
	}
	if m.Backends["http"].Tokens == 0 {
		t.Fatal("http backend generated-token counter stayed zero")
	}
	if m.Backend != "sim" {
		t.Fatalf("default backend label = %q, want sim", m.Backend)
	}
}

// TestGatewayUnknownModel pins the 404 on unmapped model names.
func TestGatewayUnknownModel(t *testing.T) {
	ts, _, _ := gateway(t, "", false, server.Config{MaxInflight: 4, MaxTokens: 50})
	resp, body := postJSON(t, ts.URL+"/v1/generate", server.GenerateRequest{
		GrammarRequest: server.GrammarRequest{Kind: "builtin", Source: "json"},
		Model:          "no-such-model",
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d %s", resp.StatusCode, body)
	}
}

// failingBackend opens sequences that error after two tokens, driving the
// gateway's FinishError path and per-backend error counter.
type failingBackend struct{ inner backend.Backend }

func (f *failingBackend) Name() string           { return "flaky" }
func (f *failingBackend) Timing() backend.Timing { return f.inner.Timing() }
func (f *failingBackend) Close() error           { return f.inner.Close() }
func (f *failingBackend) Open(req backend.Request) (backend.Sequence, error) {
	seq, err := f.inner.Open(req)
	if err != nil {
		return nil, err
	}
	return &failAfterSeq{Sequence: seq, n: 2}, nil
}

type failAfterSeq struct {
	backend.Sequence
	n int
}

var errBackendDown = errors.New("backend down")

func (s *failAfterSeq) Next(ctx context.Context, mask []uint64) (int32, error) {
	if s.n <= 0 {
		return 0, errBackendDown
	}
	s.n--
	return s.Sequence.Next(ctx, mask)
}

// Draft forwards the inner draft hook, so a speculative request fails
// inside the verify pass instead of falling back to plain decoding.
func (s *failAfterSeq) Draft(ctx context.Context, k int) (backend.Proposer, bool) {
	return s.Sequence.(backend.Speculator).Draft(ctx, k)
}

// TestGatewayBackendFailure pins the gateway's model-fault taxonomy: a
// backend dying mid-generation finishes that generation with
// error, returns its pooled session — in a plain round and mid-verify in a
// speculative one alike — and the decode loop keeps serving.
func TestGatewayBackendFailure(t *testing.T) {
	eos := testInfo(t).EOSTokenID()
	ts, _, comp := gateway(t, "", false, server.Config{
		MaxInflight: 4, MaxTokens: 50,
		Backends: map[string]backend.Backend{"flaky": &failingBackend{inner: simllm.NewSampler(eos)}},
	})
	cg, err := comp.CompileBuiltinJSON()
	if err != nil {
		t.Fatal(err)
	}

	for _, spec := range []*server.SpeculativeParams{nil, {DraftTokens: 4}} {
		resp, body := postJSON(t, ts.URL+"/v1/generate", server.GenerateRequest{
			GrammarRequest: server.GrammarRequest{Kind: "builtin", Source: "json"},
			Model:          "flaky", Seed: 11, Speculative: spec,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("generate: %d %s", resp.StatusCode, body)
		}
		var r server.GenerateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.FinishReason != server.FinishError {
			t.Fatalf("speculative=%v: finish_reason = %q, want error", spec != nil, r.FinishReason)
		}
		if r.Tokens == 0 {
			t.Fatalf("speculative=%v: partial output before the fault was not streamed", spec != nil)
		}
		if n := cg.SessionsOutstanding(); n != 0 {
			t.Fatalf("speculative=%v: failed generation kept %d sessions", spec != nil, n)
		}
	}

	// The batch must still serve healthy generations afterwards.
	resp, body := postJSON(t, ts.URL+"/v1/generate", server.GenerateRequest{
		GrammarRequest: server.GrammarRequest{Kind: "builtin", Source: "json"}, Seed: 11,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault generate: %d %s", resp.StatusCode, body)
	}

	m := getMetrics(t, ts.URL)
	if m.Backends["flaky"].Errors != 2 {
		t.Fatalf("flaky backend errors = %d, want 2", m.Backends["flaky"].Errors)
	}
}

// promptTeacher is the teacher-forced model behind the gateway: the gateway
// sets no Target, so the prompt carries the text to reproduce. forced counts
// the jump-forward insertions the teacher absorbed.
type promptTeacher struct {
	*simllm.Teacher
	forced atomic.Int64
}

func (p *promptTeacher) Open(req backend.Request) (backend.Sequence, error) {
	req.Target = req.Prompt
	seq, err := p.Teacher.Open(req)
	if err != nil {
		return nil, err
	}
	return &countForcedSeq{Sequence: seq, forced: &p.forced}, nil
}

type countForcedSeq struct {
	backend.Sequence
	forced *atomic.Int64
}

func (s *countForcedSeq) ObserveForced(text string) bool {
	ok := s.Sequence.ObserveForced(text)
	if ok {
		s.forced.Add(1)
	}
	return ok
}

// TestGatewayTeacherJumpForward decodes a JSON-Schema document through a
// position-tracking backend: the batcher must tell the model about every
// jump-forward insertion (ObserveForced), or the teacher loses alignment
// after the first forced byte and the request ends finish_reason "error".
func TestGatewayTeacherJumpForward(t *testing.T) {
	teacher := &promptTeacher{Teacher: simllm.NewTeacher(tokenizer.BuildDefault(800), llmsim.Profile{}, simllm.TeacherOptions{})}
	ts, _, _ := gateway(t, "", false, server.Config{
		MaxInflight: 4, MaxTokens: 300,
		Backends: map[string]backend.Backend{"teacher": teacher},
	})
	gen := func(req server.GenerateRequest) server.GenerateResponse {
		req.GrammarRequest = server.GrammarRequest{Kind: "json_schema", Source: testSchema}
		resp, body := postJSON(t, ts.URL+"/v1/generate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("generate model=%q: %d %s", req.Model, resp.StatusCode, body)
		}
		var r server.GenerateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	// The target is whatever the default sampler produced under the same
	// grammar, so it is valid and spells its forced runs as the grammar does.
	target := gen(server.GenerateRequest{Seed: 7}).Text
	got := gen(server.GenerateRequest{Model: "teacher", Prompt: target})
	if got.FinishReason != server.FinishStop || got.Text != target {
		t.Fatalf("teacher through the gateway: finish_reason %q, text %q, want stop and %q",
			got.FinishReason, got.Text, target)
	}
	if n := teacher.forced.Load(); n < 2 || got.JumpForwardBytes == 0 {
		t.Fatalf("%d forced insertions (%d bytes) reached the teacher, want >= 2", n, got.JumpForwardBytes)
	}
}
