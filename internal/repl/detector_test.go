package repl

import (
	"sync"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/clock"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
)

// stepClock is a machine clock the test moves by hand. Its one timer
// reports every arming — NewTimer and each Reset — on armed, and fires
// only when the test fires it, so a detector on it runs in lockstep
// with the test. armed holds one arming, so a detector the test has
// stopped reading after a failure still stops.
type stepClock struct {
	clock.Clock // unused: the detector only reads Now and arms one timer

	mu    sync.Mutex
	now   time.Time
	timer *stepTimer
	armed chan time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) NewTimer(d time.Duration) clock.Timer {
	t := &stepTimer{c: c, ch: make(chan time.Time, 1)}
	c.mu.Lock()
	c.timer = t
	c.mu.Unlock()
	c.armed <- d
	return t
}

// step moves the clock d forward and fires the timer, as a timer armed
// for d would fire.
func (c *stepClock) step(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now, t := c.now, c.timer
	c.mu.Unlock()
	t.ch <- now
}

type stepTimer struct {
	c  *stepClock
	ch chan time.Time
}

func (t *stepTimer) C() <-chan time.Time        { return t.ch }
func (t *stepTimer) Stop() bool                 { return true }
func (t *stepTimer) Reset(d time.Duration) bool { t.c.armed <- d; return false }

type steppedNIC struct {
	amnet.NIC
	clk *stepClock
}

func (n steppedNIC) Clock() clock.Clock { return n.clk }

// steppedStandby is a standby receiver on a machine whose clock the
// test steps. The receiver is never started: the test sets its contact
// stamp, the detector's only input, by hand.
func steppedStandby(t *testing.T) (*stepClock, *Receiver) {
	t.Helper()
	r := newRig(t)
	nic, err := r.net.Attach()
	if err != nil {
		t.Fatal(err)
	}
	clk := &stepClock{now: time.Unix(1_000_000, 0), armed: make(chan time.Duration, 1)}
	fb := fbox.New(steppedNIC{nic, clk}, nil)
	t.Cleanup(func() { fb.Close() })
	standby := newCounter(t, fb, newLog(t), 0x57E9)
	t.Cleanup(func() { standby.Close() })
	recv := NewReceiver(fb, crypto.NewSeededSource(0x57E9), standby.Kernel)
	return clk, recv
}

// TestDetectorFiresAtTheSilenceDeadline: the detector first waits one
// full gap, even when the silence it is armed over is already past the
// gap; each check that finds the primary heard re-arms the timer for
// the gap minus the silence; silence equal to the gap does not fire it,
// and the first instant past the gap does. Every re-arm is positive: a
// clock that reads the same instant twice (a virtual one) must not wake
// the detector at that instant for ever.
func TestDetectorFiresAtTheSilenceDeadline(t *testing.T) {
	const gap = 300 * time.Millisecond
	clk, recv := steppedStandby(t)
	t0 := clk.Now()
	recv.contact.Store(t0.Add(-time.Hour).UnixNano())
	fired := make(chan struct{})
	det := NewDetector(recv, gap, func() { close(fired) })
	det.Start()
	t.Cleanup(det.Stop)
	rearm := func(want time.Duration) {
		t.Helper()
		select {
		case d := <-clk.armed:
			if d <= 0 {
				t.Fatalf("re-armed for %v at silence %v: a clock that does not move spins", d, recv.Silence())
			}
			if d < want-time.Millisecond || d > want+time.Millisecond {
				t.Fatalf("armed for %v, want %v (silence %v)", d, want, recv.Silence())
			}
		case <-fired:
			t.Fatalf("fired at silence %v, gap %v", recv.Silence(), gap)
		}
	}

	rearm(gap) // an hour of silence, and still one full gap first

	recv.contact.Store(t0.Add(200 * time.Millisecond).UnixNano()) // a heartbeat
	clk.step(gap)
	rearm(gap - 100*time.Millisecond)

	clk.step(gap - 100*time.Millisecond) // silence == gap exactly
	if s := recv.Silence(); s != gap {
		t.Fatalf("silence %v, want %v", s, gap)
	}
	rearm(time.Nanosecond)

	clk.step(0) // the same instant read again
	rearm(time.Nanosecond)

	clk.step(time.Millisecond)
	select {
	case <-fired:
	case d := <-clk.armed:
		t.Fatalf("silence %v past a %v gap re-armed for %v instead of firing", recv.Silence(), gap, d)
	case <-time.After(5 * time.Second):
		t.Fatal("the detector never fired")
	}
	if !det.Fired() {
		t.Fatal("Fired() is false after onExpire ran")
	}
}

// TestDetectorWakesAtMostTwicePerGap: under steady contact — a
// heartbeat every third of a lease term, the shipper's idle cadence —
// the detector wakes at most twice per gap (it polled four times per
// gap before) and never fires.
func TestDetectorWakesAtMostTwicePerGap(t *testing.T) {
	const (
		term  = 150 * time.Millisecond
		gap   = term + term/2
		beat  = term / 3
		gaps  = 20
		limit = 2 * gaps
	)
	clk, recv := steppedStandby(t)
	t0 := clk.Now()
	recv.contact.Store(t0.UnixNano())
	det := NewDetector(recv, gap, func() { t.Error("fired under steady contact") })
	det.Start()
	t.Cleanup(det.Stop)

	wakes, next := 0, t0.Add(beat)
	for d := <-clk.armed; clk.Now().Before(t0.Add(gaps * gap)); d = <-clk.armed {
		deadline := clk.Now().Add(d)
		for ; !next.After(deadline); next = next.Add(beat) {
			recv.contact.Store(next.UnixNano())
		}
		clk.step(d)
		wakes++
		if wakes > limit {
			t.Fatalf("%d wakes in under %d gaps", wakes, gaps)
		}
	}
	if det.Fired() {
		t.Fatal("fired under steady contact")
	}
	t.Logf("%d wakes in %d gaps", wakes, gaps)
}
