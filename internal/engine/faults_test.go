package engine

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xgrammar/internal/backend"
	"xgrammar/internal/llmsim"
	"xgrammar/internal/tokenizer"
)

// faultModel wraps a real model backend and swaps in a scripted faulty
// sequence for chosen requests — the engine must fail exactly those
// sequences and decode the rest of the batch to completion.
type faultModel struct {
	inner  backend.Backend
	fault  func(req backend.Request, seq backend.Sequence) backend.Sequence
	opened atomic.Int64
	closed atomic.Int64
}

func (m *faultModel) Name() string           { return "fault" }
func (m *faultModel) Timing() backend.Timing { return m.inner.Timing() }
func (m *faultModel) Close() error           { return m.inner.Close() }

func (m *faultModel) Open(req backend.Request) (backend.Sequence, error) {
	s, err := m.inner.Open(req)
	if err != nil {
		return nil, err
	}
	m.opened.Add(1)
	if f := m.fault(req, s); f != nil {
		s = f
	}
	return &closeCountingSeq{Sequence: s, closed: &m.closed}, nil
}

type closeCountingSeq struct {
	backend.Sequence
	closed *atomic.Int64
}

func (s *closeCountingSeq) Close() {
	s.closed.Add(1)
	s.Sequence.Close()
}

// errAfterSeq emits n good tokens, then fails every Next.
type errAfterSeq struct {
	backend.Sequence
	n   int
	err error
}

func (s *errAfterSeq) Next(ctx context.Context, mask []uint64) (int32, error) {
	if s.n <= 0 {
		return 0, s.err
	}
	s.n--
	return s.Sequence.Next(ctx, mask)
}

// badTokenSeq emits n good tokens, then returns a fixed malformed id.
type badTokenSeq struct {
	backend.Sequence
	n  int
	id int32
}

func (s *badTokenSeq) Next(ctx context.Context, mask []uint64) (int32, error) {
	if s.n <= 0 {
		return s.id, nil
	}
	s.n--
	return s.Sequence.Next(ctx, mask)
}

// slowSeq blocks inside Next until the engine's context is canceled.
type slowSeq struct{ backend.Sequence }

func (s *slowSeq) Next(ctx context.Context, _ []uint64) (int32, error) {
	<-ctx.Done()
	return 0, ctx.Err()
}

// runFaulted decodes n JSON documents against the JSON grammar with the
// given faulty model.
func runFaulted(ctx context.Context, t *testing.T, fm *faultModel, n int) (Metrics, []string, []*llmsim.Request, error) {
	t.Helper()
	tok, grammar := testSetup(t)
	reqs := llmsim.NewRequests(jsonTargets(n), 139)
	met, outs, err := Run(Config{Model: fm, Mode: Overlap, Grammar: grammar, Tok: tok, Ctx: ctx}, reqs)
	return met, outs, reqs, err
}

// TestFaultMidStreamError pins the error taxonomy: a model backend failing
// mid-stream abandons only its own sequence — partial output returned, batch
// unaffected, every model sequence closed.
func TestFaultMidStreamError(t *testing.T) {
	tok := tokenizer.BuildDefault(500)
	boom := errors.New("backend exploded")
	fm := &faultModel{
		inner: testModel(tok),
		fault: func(req backend.Request, seq backend.Sequence) backend.Sequence {
			if req.ID == 2 {
				return &errAfterSeq{Sequence: seq, n: 3, err: boom}
			}
			return nil
		},
	}
	met, outs, reqs, err := runFaulted(context.Background(), t, fm, 4)
	if err != nil {
		t.Fatalf("run must survive a per-sequence model fault: %v", err)
	}
	if met.ModelErrors != 1 {
		t.Fatalf("ModelErrors = %d, want 1", met.ModelErrors)
	}
	for i, o := range outs {
		if i == 2 {
			if o == reqs[i].Target || !strings.HasPrefix(reqs[i].Target, o) {
				t.Fatalf("failed sequence output %q is not a strict prefix of target", o)
			}
			continue
		}
		if o != reqs[i].Target {
			t.Fatalf("healthy sequence %d corrupted by neighbor fault: %q", i, o)
		}
	}
	if got := fm.closed.Load(); got != fm.opened.Load() || got != 4 {
		t.Fatalf("model sequences closed %d of %d opened, want 4", got, fm.opened.Load())
	}
}

// TestFaultMalformedToken covers backends returning ids the engine must
// reject: out-of-vocabulary and grammar-masked-out tokens both fail the
// sequence, not the run.
func TestFaultMalformedToken(t *testing.T) {
	tok := tokenizer.BuildDefault(500)
	closeBrace := tok.Encode("}")[0] // disallowed at a JSON document start
	fm := &faultModel{
		inner: testModel(tok),
		fault: func(req backend.Request, seq backend.Sequence) backend.Sequence {
			switch req.ID {
			case 0:
				return &badTokenSeq{Sequence: seq, n: 0, id: int32(tok.VocabSize() + 5)}
			case 3:
				return &badTokenSeq{Sequence: seq, n: 0, id: closeBrace}
			}
			return nil
		},
	}
	met, outs, reqs, err := runFaulted(context.Background(), t, fm, 4)
	if err != nil {
		t.Fatalf("run must survive malformed backend tokens: %v", err)
	}
	if met.ModelErrors != 2 {
		t.Fatalf("ModelErrors = %d, want 2", met.ModelErrors)
	}
	for _, i := range []int{1, 2} {
		if outs[i] != reqs[i].Target {
			t.Fatalf("healthy sequence %d corrupted: %q", i, outs[i])
		}
	}
	if got := fm.closed.Load(); got != fm.opened.Load() {
		t.Fatalf("model sequences closed %d of %d opened", got, fm.opened.Load())
	}
}

// TestFaultSlowBackendCancel pins context plumbing: a backend stuck in Next
// observes the run context's cancellation, the engine closes every model
// sequence and returns partial outputs with the context error.
func TestFaultSlowBackendCancel(t *testing.T) {
	tok := tokenizer.BuildDefault(500)
	fm := &faultModel{
		inner: testModel(tok),
		fault: func(req backend.Request, seq backend.Sequence) backend.Sequence {
			if req.ID == 0 {
				return &slowSeq{Sequence: seq}
			}
			return nil
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	met, outs, _, err := runFaulted(ctx, t, fm, 3)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if outs == nil {
		t.Fatal("canceled run must still return partial outputs")
	}
	if got := fm.closed.Load(); got != fm.opened.Load() {
		t.Fatalf("model sequences closed %d of %d opened", got, fm.opened.Load())
	}
	if met.ModelErrors == 0 {
		t.Fatal("stuck sequence not counted as model error")
	}
}
