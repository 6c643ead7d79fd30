//go:build retryverify

package coherence

import "logtmse/internal/sig"

// Delta returns the counter increments a replay of path p for op adds
// to Stats — what a walk along the same path must have added. Only the
// retryverify build, whose checker compares the two, needs it.
func (p NackPath) Delta(op sig.Op) Stats {
	var d Stats
	p.count(&d, op)
	return d
}
