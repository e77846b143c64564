package clock

import (
	"testing"
	"time"
)

func TestRealTimerFiresAndResets(t *testing.T) {
	tm := Real.NewTimer(time.Millisecond)
	<-tm.C()
	if tm.Stop() {
		t.Fatal("Stop reported a fired timer as pending")
	}
	tm.Reset(time.Hour)
	if !tm.Stop() {
		t.Fatal("Stop did not find the re-armed timer pending")
	}
	tm.Reset(time.Millisecond)
	<-tm.C()
}

func TestRealAfterFuncAndSleep(t *testing.T) {
	fired := make(chan struct{})
	tm := Real.AfterFunc(time.Millisecond, func() { close(fired) })
	if tm.C() != nil {
		t.Fatal("an AfterFunc timer has a channel")
	}
	start := Real.Now()
	Real.Sleep(2 * time.Millisecond)
	if d := Real.Now().Sub(start); d < 2*time.Millisecond {
		t.Fatalf("Sleep returned after %v", d)
	}
	<-fired
	Real.Sleep(-time.Second) // returns at once
}

func TestRealTimerAllocatesOnlyTheTimer(t *testing.T) {
	tm := Real.NewTimer(time.Hour)
	defer tm.Stop()
	if n := testing.AllocsPerRun(100, func() {
		tm.Stop()
		tm.Reset(time.Hour)
		_ = tm.C()
	}); n != 0 {
		t.Fatalf("Stop/Reset/C through the interface: %v allocs", n)
	}
}

// aheadClock is a machine clock an hour ahead of the wall clock.
type aheadClock struct{ Clock }

func (c aheadClock) Now() time.Time { return c.Clock.Now().Add(time.Hour) }

func TestSinceReadsTheClocksOwnNow(t *testing.T) {
	start := Real.Now()
	Real.Sleep(time.Millisecond)
	if d := Since(Real, start); d < time.Millisecond || d > time.Minute {
		t.Fatalf("Since on the real clock: %v", d)
	}
	// A stamp taken on the real clock, read on a clock an hour ahead:
	// Since must go through that clock's Now, not the wall clock's.
	if d := Since(aheadClock{Real}, start); d < time.Hour {
		t.Fatalf("Since on a clock an hour ahead: %v", d)
	}
}

// stoppedClock reads one instant that carries no monotonic reading.
type stoppedClock struct {
	Clock
	at time.Time
}

func (c stoppedClock) Now() time.Time { return c.at }

func TestMonoTracksEachClock(t *testing.T) {
	a := Mono(Real)
	Real.Sleep(time.Millisecond)
	b := Mono(Real)
	if d := time.Duration(b - a); d < time.Millisecond || d > time.Minute {
		t.Fatalf("two real readings a millisecond apart differ by %v", d)
	}
	// A skewed clock's readings move with it.
	r := Mono(Real)
	if d := time.Duration(Mono(aheadClock{Real}) - r); d < time.Hour || d > time.Hour+time.Minute {
		t.Fatalf("a clock an hour ahead reads %v ahead", d)
	}
	// A clock with no monotonic reading reads its Unix time exactly.
	at := time.Unix(1_000_000, 42)
	if got := Mono(stoppedClock{at: at}); got != at.UnixNano() {
		t.Fatalf("stopped clock reads %d, want %d", got, at.UnixNano())
	}
	// MonoTime names the instant a reading was taken at.
	if d := Since(Real, MonoTime(b)); d < 0 || d > time.Minute {
		t.Fatalf("a reading's instant is %v in the past", d)
	}
	if !MonoTime(at.UnixNano()).Equal(at) {
		t.Fatalf("MonoTime(%d) = %v, want %v", at.UnixNano(), MonoTime(at.UnixNano()), at)
	}
}
