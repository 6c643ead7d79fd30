package core

import (
	"logtmse/internal/addr"
	"logtmse/internal/coherence"
	"logtmse/internal/sig"
)

// Retry-aware execution (DESIGN.md §15). A NACKed access's outcome is a
// function of the conflict-detection state (signatures, exact sets, the
// hot rows, txLive), the block's directory entry and L1 residency; its
// latency is discarded, since the retry delay does not depend on it. When
// none of that changed since a thread's last NACK walk — the System's
// conflict-state epoch did not move — the retry replays the walk's side
// effects from the thread's memo instead of walking again.

// retryMemo is one thread's last replayable NACK walk.
type retryMemo struct {
	epoch   uint64 // System.epoch the walk ran at; 0 = never written
	va      addr.VAddr
	pa      addr.PAddr
	op      sig.Op
	path    coherence.NackPath
	nackers []coherence.Nacker // reused across writes, so steady state allocates nothing
	smt     bool               // an SMT-sibling conflict (no memory-system walk)
}

// retryMemoBypassed reports whether NACK walks currently have side
// effects a memo cannot replay, so every retry must walk.
func (s *System) retryMemoBypassed() bool {
	return s.P.ModelContention || // router and bank queues advance on every message
		s.grid.Perturbed() // a net-delay perturbation draws the injector's RNG per message
}

// memoFor returns t's memo when it answers a retry of va, or nil.
func (s *System) memoFor(t *Thread, va addr.VAddr) *retryMemo {
	if m := &s.memos[t.ID]; m.epoch == s.epoch && m.va == va && !s.retryMemoBypassed() {
		return m
	}
	return nil
}

// noteNACK records a NACK walk in the thread's memo, or advances the
// epoch when the walk itself changed protocol state.
func (s *System) noteNACK(t *Thread, va addr.VAddr, pa addr.PAddr, op sig.Op, path coherence.NackPath, smt bool, nackers []coherence.Nacker) {
	if path&coherence.PathReplayable == 0 {
		s.epoch++
		return
	}
	if s.retryMemoBypassed() {
		return
	}
	m := &s.memos[t.ID]
	m.epoch, m.va, m.pa, m.op, m.smt, m.path = s.epoch, va, pa, op, smt, path
	m.nackers = append(m.nackers[:0], nackers...)
}

// replayNACK answers a quiet retry from the thread's memo: it repeats
// the walk's counters and events, then resolves the NACK on the one
// conflict-resolution path every NACK takes. Under the retryverify build
// tag it walks anyway and checks the memo against the walk.
func (s *System) replayNACK(t *Thread, r request, m *retryMemo) {
	s.quietRetries++
	if retryVerify {
		s.verifyReplay(t, r, m)
		return
	}
	if m.smt {
		s.smtNACK(t, m.nackers[0], m.op, m.pa)
	} else {
		s.Coh.ReplayNACK(s.cohRequest(t, m.op, m.pa), m.path)
	}
	if s.P.CD == CDCacheBits {
		s.stats.OverflowNACKs += overflowNackers(m.nackers)
	}
	s.resolveNACK(t, r, m.op, m.nackers)
}

// overflowNackers counts the NACKers that answered through the
// original-LogTM overflow rule; each one bumped Stats.OverflowNACKs
// during the walk (ctxConflict).
func overflowNackers(ns []coherence.Nacker) uint64 {
	var n uint64
	for i := range ns {
		if ns[i].Overflow {
			n++
		}
	}
	return n
}

// ConflictStateChanged must be called by code outside the engine that
// changes cache contents, page mappings or signatures directly (forced
// evictions, page relocation): it invalidates every memoized NACK, so
// the next retry of each stalled access walks the protocol again.
func (s *System) ConflictStateChanged() { s.epoch++ }
