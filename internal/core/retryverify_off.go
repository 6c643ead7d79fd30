//go:build !retryverify

package core

// retryVerify is set by the retryverify build tag (retryverify_on.go).
const retryVerify = false

func (s *System) verifyReplay(*Thread, request, *retryMemo) {}
