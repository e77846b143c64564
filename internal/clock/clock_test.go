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
