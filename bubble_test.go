//go:build goexperiment.synctest

package amoeba

import (
	"testing"
	"testing/synctest"
)

// virtual is whether bubble runs in virtual time.
const virtual = true

// bubble runs f in a synctest bubble: every timer, sleep and clock
// reading of the cluster f boots is virtual, and time moves only when
// every goroutine in the bubble is blocked, so a run is as long in
// virtual time on every host and costs only the CPU it uses. f runs on
// a goroutine of its own, which a t.Fatal ends through f's defers. So
// f defers stopping whatever it started, its cluster included: a
// t.Cleanup runs outside the bubble, and may touch none of its
// channels.
func bubble(t *testing.T, f func()) {
	t.Helper()
	synctest.Run(f)
}
