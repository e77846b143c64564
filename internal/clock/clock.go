// Package clock is a machine's time. Every timer, deadline and
// timestamp a component built over an F-box takes comes from its NIC's
// Clock (amnet.NIC.Clock), so one machine's time is one thing: skew it
// and that machine's receive stamps, leases, failure detectors and
// retry timers move together, while no other machine's do. Clocks on
// two machines are never compared.
package clock

import "time"

// Clock is one machine's source of time.
type Clock interface {
	// Now returns the machine's current time.
	Now() time.Time
	// NewTimer returns a timer whose channel fires once, d from now.
	NewTimer(d time.Duration) Timer
	// AfterFunc calls f on its own goroutine d from now.
	AfterFunc(d time.Duration, f func()) Timer
	// Sleep pauses the calling goroutine for d (none for d <= 0).
	Sleep(d time.Duration)
}

// Since is c.Now().Sub(t). On the real clock it reads only the
// monotonic clock, half the cost of Now: the RPC server times every
// request with it.
func Since(c Clock, t time.Time) time.Duration {
	if _, ok := c.(realClock); ok {
		return time.Since(t)
	}
	return c.Now().Sub(t)
}

// Timer is a one-shot timer with time.Timer's Stop and Reset.
type Timer interface {
	// C returns the channel the timer fires on (nil for AfterFunc).
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Real is the wall clock, package time.
var Real Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time                 { return time.Now() }
func (realClock) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }
func (realClock) Sleep(d time.Duration)          { time.Sleep(d) }

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

// realTimer is pointer-shaped, so wrapping a *time.Timer in the Timer
// interface allocates nothing.
type realTimer struct{ *time.Timer }

func (t realTimer) C() <-chan time.Time { return t.Timer.C }

// epoch anchors Mono readings; epochNS is its Unix time.
var (
	epoch   = time.Now()
	epochNS = epoch.UnixNano()
)

// Mono is c's current reading in nanoseconds on a monotonic scale: the
// Unix time of a process-wide epoch plus the time elapsed since it.
// On the real clock the elapsed part is one monotonic read
// (time.Since), so a step of the wall clock never moves a reading and
// an interval between two readings is never stretched or shrunk by
// one; it also costs less than Now. On any other clock it is
// c.Now().Sub(epoch), so a skewed machine's readings move with its
// clock, and a clock whose times carry no monotonic reading (a
// stopped or stepped test clock) reads exactly its Now().UnixNano().
// Readings from two machines' clocks are never compared.
func Mono(c Clock) int64 {
	if _, ok := c.(realClock); ok {
		return epochNS + int64(time.Since(epoch))
	}
	return epochNS + int64(c.Now().Sub(epoch))
}

// MonoTime is the instant a Mono reading names, as a time.Time whose
// Sub against another machine-clock time is exact.
func MonoTime(ns int64) time.Time { return epoch.Add(time.Duration(ns - epochNS)) }
