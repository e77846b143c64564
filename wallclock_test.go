//go:build !goexperiment.synctest

package amoeba

import "testing"

// virtual is whether bubble runs in virtual time.
const virtual = false

// bubble runs f on the wall clock: without GOEXPERIMENT=synctest there
// is no bubble.
func bubble(t *testing.T, f func()) {
	t.Helper()
	f()
}
