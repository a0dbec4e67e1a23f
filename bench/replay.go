package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"xgrammar"
)

// replayBackend is the gateway's model for the benchmark: Next returns the
// next id of a script recorded at set-up, so the backend costs nanoseconds
// and every request ends with finish_reason "stop" on a known document. The
// request's prompt names the script.
//
// Neither stock backend can stand here. The seeded sampler builds the list
// of allowed tokens on every step — microseconds of test-double cost over a
// sub-microsecond engine step — and its outputs end by "length". The
// teacher-forced simllm.Teacher loses alignment after the first
// jump-forward, because batcher.insertJumpForward never calls
// Sequence.ObserveForced (README.md, "Findings").
type replayBackend struct {
	scripts map[string][]int32

	// timed makes every Next call record its own duration (traced pass).
	timed bool
	mu    sync.Mutex
	next  dist
}

func (b *replayBackend) Name() string                 { return "replay" }
func (b *replayBackend) Timing() xgrammar.ModelTiming { return xgrammar.ZeroModelTiming{} }
func (b *replayBackend) Close() error                 { return nil }

func (b *replayBackend) Open(req xgrammar.ModelRequest) (xgrammar.ModelSequence, error) {
	script, ok := b.scripts[req.Prompt]
	if !ok {
		return nil, fmt.Errorf("replay: no script %q", req.Prompt)
	}
	return &replaySeq{b: b, script: script}, nil
}

// takeNext returns and clears the recorded Next durations.
func (b *replayBackend) takeNext() dist {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.next
	b.next = dist{}
	return d
}

type replaySeq struct {
	b      *replayBackend
	script []int32
	pos    int
}

func (s *replaySeq) Next(_ context.Context, mask []uint64) (int32, error) {
	var t0 time.Time
	if s.b.timed {
		t0 = time.Now()
	}
	if s.pos >= len(s.script) {
		return 0, xgrammar.ErrNoToken
	}
	id := s.script[s.pos]
	if !maskHas(mask, id) {
		return 0, fmt.Errorf("replay: mask forbids reference token %d at step %d", id, s.pos)
	}
	s.pos++
	if s.b.timed {
		d := float64(time.Since(t0))
		s.b.mu.Lock()
		s.b.next.add(d)
		s.b.mu.Unlock()
	}
	return id, nil
}

// ObserveForced accepts any insertion: the script was recorded with the same
// prefix and jump-forward insertions the gateway will make.
func (s *replaySeq) ObserveForced(string) bool { return true }

func (s *replaySeq) Close() {}

// recordScript walks rest (the document after any forced prefix s already
// holds) through s the way a batcher round does — current mask, next
// reference token, Accept, jump-forward insertion, Fill — and returns the
// token ids a model must emit to reproduce the document, ending with the
// stop token. The reference token is the next token of the BPE encoding of
// what remains; after an insertion lands inside a token the remainder is
// re-encoded. It fails if the mask forbids a reference token or a forced
// continuation leaves the document.
func recordScript(info *xgrammar.TokenizerInfo, s *xgrammar.Session, rest string) ([]int32, error) {
	var script []int32
	toks := info.Encode(rest)
	for {
		id := info.EOSTokenID()
		if rest != "" {
			id, toks = toks[0], toks[1:]
		}
		if !maskHas(s.Mask(), id) {
			return nil, fmt.Errorf("mask forbids reference token %d (%q) with %d bytes left", id, info.TokenBytes(id), len(rest))
		}
		if err := s.Accept(id); err != nil {
			return nil, err
		}
		script = append(script, id)
		if s.IsTerminated() {
			return script, nil
		}
		if rest == "" {
			return nil, fmt.Errorf("stop token accepted without terminating")
		}
		rest = rest[len(info.TokenBytes(id)):]
		if jf := s.JumpForward(); jf != "" {
			if !strings.HasPrefix(rest, jf) {
				return nil, fmt.Errorf("forced continuation %q leaves the document at %q", jf, rest)
			}
			if err := s.AcceptString(jf); err != nil {
				return nil, err
			}
			rest = rest[len(jf):]
			toks = info.Encode(rest)
		}
		s.Fill()
	}
}

// driveScript replays a recorded script through s with the batcher's
// per-round sequence, calling visit with the mask each token is drawn from.
// It is the walk decode_batch times and the mask fingerprint hashes.
func driveScript(s *xgrammar.Session, script []int32, visit func(mask []uint64)) error {
	for i, id := range script {
		s.Fill()
		mask := s.Mask()
		if visit != nil {
			visit(mask)
		}
		if !maskHas(mask, id) {
			return fmt.Errorf("mask forbids script token %d at step %d", id, i)
		}
		if err := s.Accept(id); err != nil {
			return err
		}
		if s.IsTerminated() {
			break
		}
		if jf := s.JumpForward(); jf != "" {
			if err := s.AcceptString(jf); err != nil {
				return err
			}
		}
	}
	if !s.IsTerminated() {
		return fmt.Errorf("script ended without terminating the grammar")
	}
	return nil
}

// driveTokens steps s through reference tokens with the fused Session.Step,
// the single-session walk of decode_schema, decode_cfg and compile_cold.
func driveTokens(s *xgrammar.Session, toks []int32, visit func(mask []uint64)) error {
	for i, id := range toks {
		mask := s.Mask()
		if visit != nil {
			visit(mask)
		}
		if !maskHas(mask, id) {
			return fmt.Errorf("mask forbids reference token %d at step %d", id, i)
		}
		if _, err := s.Step(id); err != nil {
			return err
		}
	}
	if !s.IsTerminated() {
		return fmt.Errorf("reference tokens ended without terminating the grammar")
	}
	return nil
}
