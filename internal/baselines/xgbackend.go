package baselines

import (
	"xgrammar/internal/bitset"
	"xgrammar/internal/maskcache"
	"xgrammar/internal/pda"
	"xgrammar/internal/serve"
	"xgrammar/internal/tokenizer"
)

// XGBackend adapts the XGrammar engine (PDA + adaptive token mask cache) to
// the Backend interface so experiments can swap it against the baselines.
// Its sessions are the serving runtime's grammar sessions (serve.Session),
// so the comparison measures the engine that serves. A nil cache degrades
// to the prefix-sharing full-scan path (used by the Table 3 ablation).
type XGBackend struct {
	pool  *serve.SessionPool
	label string
}

// NewXGBackend wraps a compiled grammar. cache may be nil.
func NewXGBackend(p *pda.PDA, cache *maskcache.Cache, tok *tokenizer.Tokenizer, label string) *XGBackend {
	if label == "" {
		label = "xgrammar"
	}
	return &XGBackend{pool: serve.NewSessionPool(p, cache, tok, 0), label: label}
}

// Name implements Backend.
func (x *XGBackend) Name() string { return x.label }

// NewSession implements Backend. The session also supports jump-forward
// (JumpForwarder), Rollback, Fork and Discard. CanTerminate is false once
// the stop token has been accepted.
func (x *XGBackend) NewSession() Session { return xgSession{x.pool.Acquire()} }

// xgSession adapts serve.Session to Session, whose FillMask reports no
// statistics.
type xgSession struct{ *serve.Session }

func (s xgSession) FillMask(mask *bitset.Bitset) { s.Session.FillMask(mask) }

// JumpForwarder is implemented by sessions that support jump-forward
// decoding (Appendix B).
type JumpForwarder interface {
	JumpForward() string
	AcceptString(text string) error
}
