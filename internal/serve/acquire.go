package serve

import (
	"sync/atomic"

	"xgrammar/internal/maskcache"
	"xgrammar/internal/matcher"
	"xgrammar/internal/prefixcache"
)

// DefaultPublishDepth is the shortest forced prefix (in bytes) worth
// publishing to the prefix cache: below this, replaying is cheaper than a
// checkpoint restore plus the cache bookkeeping.
const DefaultPublishDepth = 4

// Acquirer is the warm-start acquisition layer over a SessionPool: where
// the pool recycles session *resources* (matcher, fill context, mask
// buffer), the acquirer recycles session *state*. Acquire walks the prefix
// cache's radix tree for the deepest checkpoint covering the request's
// forced prefix, restores it, replays only the residual bytes, and — on an
// exact hit — adopts the memoized allowed-token mask so the first fill is
// free. Release (via Session.Close) publishes checkpoints captured during
// replay at the configured depths, so the first request through a template
// warms every request after it.
//
// An Acquirer is safe for concurrent use; the singleflight lives in the
// cache's Reserve, so concurrent cold sessions on one template capture its
// checkpoint exactly once.
type Acquirer struct {
	pool      *SessionPool
	cache     *prefixcache.Cache // nil: every acquisition is cold
	grammarID string
	minDepth  int
	stride    int

	acquires      atomic.Int64
	warmStarts    atomic.Int64
	exactHits     atomic.Int64
	bytesReused   atomic.Int64
	bytesReplayed atomic.Int64
}

// NewAcquirer layers warm-start acquisition over pool. cache may be nil
// (every acquisition replays cold). grammarID keys the cache — it must be
// stable and collision-free across grammars (the compiler's content-
// addressed ID). minDepth <= 0 uses DefaultPublishDepth; stride > 0
// additionally publishes intermediate checkpoints every stride bytes along
// the prefix, so templates sharing a shorter scaffold still warm-start.
func NewAcquirer(pool *SessionPool, cache *prefixcache.Cache, grammarID string, minDepth, stride int) *Acquirer {
	if minDepth <= 0 {
		minDepth = DefaultPublishDepth
	}
	if stride < 0 {
		stride = 0
	}
	return &Acquirer{pool: pool, cache: cache, grammarID: grammarID, minDepth: minDepth, stride: stride}
}

// AcquireResult reports how warm one acquisition was.
type AcquireResult struct {
	// PrefixLen is the forced prefix length in bytes; ReusedBytes of it were
	// skipped by restoring a cached checkpoint and ReplayedBytes were
	// replayed through the matcher.
	PrefixLen     int
	ReusedBytes   int
	ReplayedBytes int
	// Hit is true when any cached checkpoint applied; MaskReused is true
	// when the exact-prefix entry also supplied the memoized token mask
	// (the session's first fill cost nothing).
	Hit        bool
	MaskReused bool
}

// Acquire returns a session positioned after forcedPrefix with its
// allowed-token mask filled, warm-starting from the deepest cached
// checkpoint. On error (the prefix violates the grammar) the session is
// released back to the pool and any checkpoints captured up to the failing
// byte are still published — they describe positions the replay did reach.
func (a *Acquirer) Acquire(forcedPrefix []byte) (*Session, AcquireResult, error) {
	s := a.pool.Acquire()
	s.acq = a
	res := AcquireResult{PrefixLen: len(forcedPrefix)}
	a.acquires.Add(1)
	if len(forcedPrefix) == 0 {
		s.Fill()
		return s, res, nil
	}
	start := 0
	if e, depth := a.cache.Lookup(a.grammarID, forcedPrefix); e != nil && e.Checkpoint() != nil {
		s.restoreCheckpoint(e.Checkpoint(), forcedPrefix[:depth])
		start = depth
		res.Hit = true
		res.ReusedBytes = depth
		a.warmStarts.Add(1)
		a.bytesReused.Add(int64(depth))
		if depth == len(forcedPrefix) {
			a.exactHits.Add(1)
			if mask, stats, ok := e.Mask(); ok && len(mask) == len(s.mask) {
				s.adoptMask(mask, stats)
				res.MaskReused = true
				return s, res, nil
			}
			s.Fill()
			return s, res, nil
		}
	}
	// Replay the residual bytes, breaking at capture depths so intermediate
	// checkpoints can be published for shorter shared scaffolds.
	for start < len(forcedPrefix) {
		next := a.nextCaptureDepth(start, len(forcedPrefix))
		if err := s.AcceptBytes(forcedPrefix[start:next]); err != nil {
			a.bytesReplayed.Add(int64(start - res.ReusedBytes))
			res.ReplayedBytes = start - res.ReusedBytes
			s.Close()
			return nil, res, err
		}
		start = next
		if start == len(forcedPrefix) {
			break // the full-prefix capture below also memoizes the mask
		}
		if a.cache.Reserve(a.grammarID, forcedPrefix[:start]) {
			s.pending = append(s.pending, pendingPub{
				key: append([]byte(nil), forcedPrefix[:start]...),
				cp:  s.m.Checkpoint(),
			})
		}
	}
	res.ReplayedBytes = len(forcedPrefix) - res.ReusedBytes
	a.bytesReplayed.Add(int64(res.ReplayedBytes))
	stats := s.Fill()
	if len(forcedPrefix) >= a.minDepth && a.cache.Reserve(a.grammarID, forcedPrefix) {
		s.pending = append(s.pending, pendingPub{
			key:   append([]byte(nil), forcedPrefix...),
			cp:    s.m.Checkpoint(),
			mask:  append([]uint64(nil), s.mask...),
			stats: stats,
		})
	}
	return s, res, nil
}

// nextCaptureDepth returns the depth the current replay segment should end
// at: the next stride multiple past start that is at least minDepth, or end.
func (a *Acquirer) nextCaptureDepth(start, end int) int {
	if a.stride <= 0 {
		return end
	}
	d := (start/a.stride + 1) * a.stride
	for d < a.minDepth {
		d += a.stride
	}
	if d >= end {
		return end
	}
	return d
}

// AcquirerStats is a point-in-time snapshot of acquisition activity.
type AcquirerStats struct {
	// Acquires counts Acquire calls; WarmStarts those that restored a cached
	// checkpoint; ExactHits those whose whole prefix was cached.
	Acquires, WarmStarts, ExactHits int64
	// BytesReused counts prefix bytes skipped via checkpoints;
	// BytesReplayed counts bytes fed through the matcher.
	BytesReused, BytesReplayed int64
}

// Stats returns a snapshot of the acquirer counters.
func (a *Acquirer) Stats() AcquirerStats {
	return AcquirerStats{
		Acquires:      a.acquires.Load(),
		WarmStarts:    a.warmStarts.Load(),
		ExactHits:     a.exactHits.Load(),
		BytesReused:   a.bytesReused.Load(),
		BytesReplayed: a.bytesReplayed.Load(),
	}
}

// pendingPub is a checkpoint captured during Acquire's replay, held on the
// session until Release publishes it (publication after the session's work
// keeps capture off the request's critical path).
type pendingPub struct {
	key   []byte
	cp    *matcher.Checkpoint
	mask  []uint64 // non-nil only for the full-prefix entry
	stats maskcache.FillStats
}

// publishPending moves the session's captured checkpoints into the cache.
// Called by SessionPool.Release before the session is recycled.
func (s *Session) publishPending() {
	if s.acq != nil {
		for i := range s.pending {
			p := &s.pending[i]
			s.acq.cache.Publish(s.acq.grammarID, p.key, p.cp, p.mask, p.stats)
		}
	}
	s.pending = s.pending[:0]
	s.acq = nil
}

// restoreCheckpoint positions the pooled session at a cached checkpoint.
// base records the prefix bytes the checkpoint stands in for, so a rollback
// crossing the fork point can degrade to a cold reset (see Rollback).
func (s *Session) restoreCheckpoint(cp *matcher.Checkpoint, base []byte) {
	s.m.Restore(cp)
	s.base = append(s.base[:0], base...)
	s.baseSteps = 1
	s.terminated = false
	s.dirty = true
}

// RestoreCheckpoint positions the session at a checkpoint previously
// captured with Checkpoint, clearing the rollback history. Rolling back
// past the restore point degrades to the grammar start state.
func (s *Session) RestoreCheckpoint(cp *matcher.Checkpoint) {
	s.restoreCheckpoint(cp, nil)
}

// Checkpoint returns a portable snapshot of the session's current grammar
// position (the cross-goroutine complement of a matcher fork): it can be
// cached and restored into any session of the same compiled grammar.
func (s *Session) Checkpoint() *matcher.Checkpoint { return s.m.Checkpoint() }

// adoptMask installs a memoized allowed-token mask as current, so the next
// Fill is an idempotent no-op.
func (s *Session) adoptMask(mask []uint64, stats maskcache.FillStats) {
	copy(s.mask, mask)
	s.lastStats = stats
	s.dirty = false
}
