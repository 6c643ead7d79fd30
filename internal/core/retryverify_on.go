//go:build retryverify

package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"logtmse/internal/coherence"
)

// retryVerify makes every memo hit walk the protocol anyway, as the
// source of truth, and check the memo against the walk. It is a build
// tag rather than a Params field so fingerprints and result-cache keys
// cannot see it:
//
//	go test -tags retryverify . ./internal/core
const retryVerify = true

// verifyReplay runs the walk a memo hit stands in for and panics with a
// readable diff if the walk's NACK bit, NACKer list, path or counter
// delta differ from what the memo would have replayed. The walk's own
// side effects are the real ones; the NACK then resolves from its answer.
func (s *System) verifyReplay(t *Thread, r request, m *retryMemo) {
	coh0, core0 := s.Coh.Stats(), s.stats
	pa := t.PT.Translate(r.va)
	var res coherence.AccessResult
	n, smt := s.smtConflict(t, m.op, pa)
	if smt {
		s.smtNACK(t, n, m.op, pa)
		res = coherence.AccessResult{NACK: true, Nackers: s.smtNack[:], Path: coherence.PathReplayable}
	} else {
		res = s.Coh.Access(s.cohRequest(t, m.op, pa))
	}
	coh1, core1 := s.Coh.Stats(), s.stats

	var diffs []string
	if pa != m.pa {
		diffs = append(diffs, fmt.Sprintf("translation: walk %#x, memo %#x", pa, m.pa))
	}
	if !res.NACK {
		diffs = append(diffs, "NACK: the walk granted the access")
	}
	if smt != m.smt {
		diffs = append(diffs, fmt.Sprintf("SMT conflict: walk %v, memo %v", smt, m.smt))
	}
	if res.Path != m.path {
		diffs = append(diffs, fmt.Sprintf("path: walk %#x, memo %#x", res.Path, m.path))
	}
	if !slices.Equal(res.Nackers, m.nackers) {
		diffs = append(diffs, fmt.Sprintf("nackers:\n    walk %+v\n    memo %+v", res.Nackers, m.nackers))
	}
	var wantCoh coherence.Stats
	wantCore := core0
	if m.smt {
		wantCore.SMTConflicts++
	} else {
		wantCoh = m.path.Delta(m.op)
	}
	if s.P.CD == CDCacheBits {
		wantCore.OverflowNACKs += overflowNackers(m.nackers)
	}
	if got := statsDelta(coh1, coh0); got != wantCoh {
		diffs = append(diffs, fmt.Sprintf("coherence counter delta:\n    walk %+v\n    memo %+v", got, wantCoh))
	}
	if core1 != wantCore {
		diffs = append(diffs, fmt.Sprintf("engine counters:\n    walk %+v\n    memo %+v", core1, wantCore))
	}
	if len(diffs) > 0 {
		panic(fmt.Sprintf("core: retry memo of %s diverged from the walk (va %#x, %v, cycle %d, epoch %d):\n  %s",
			t.Name, r.va, m.op, s.Engine.Now(), m.epoch, strings.Join(diffs, "\n  ")))
	}
	s.resolveNACK(t, r, m.op, res.Nackers)
}

// statsDelta subtracts two counter snapshots field by field.
func statsDelta(after, before coherence.Stats) coherence.Stats {
	var d coherence.Stats
	a, b, out := reflect.ValueOf(after), reflect.ValueOf(before), reflect.ValueOf(&d).Elem()
	for i := 0; i < out.NumField(); i++ {
		out.Field(i).SetUint(a.Field(i).Uint() - b.Field(i).Uint())
	}
	return d
}
