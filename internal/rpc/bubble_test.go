//go:build goexperiment.synctest

package rpc

import (
	"context"
	"runtime/debug"
	"testing"
	"testing/synctest"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
)

// TestRPCInBubbleAfterPoolsWarmed: a transaction's attempt timer and
// its reply listener's channel come from pools. A timer or channel
// made outside a synctest bubble is not one the bubble can wait on, so
// a pool shared across machines — warmed by any earlier test outside a
// bubble — would hand a bubble's RPC a wait its virtual clock never
// ends: the bubble cannot advance time to deliver the frame, and the
// call hangs. Pools owned by the client and the F-box start empty in
// every bubble. The warm-up runs with GC off, so nothing it pools is
// collected before the bubble starts. Run with GOEXPERIMENT=synctest
// (and -cpu 1, where a shared pool hands back the warm item every
// time).
func TestRPCInBubbleAfterPoolsWarmed(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := bubbleRoundTrip(0); err != nil {
		t.Fatalf("warm-up outside the bubble: %v", err)
	}
	done := make(chan error, 1)
	go synctest.Run(func() { done <- bubbleRoundTrip(5 * time.Millisecond) })
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second): // real time: the watchdog is outside the bubble
		t.Fatal("an RPC inside a synctest bubble hung: it waited on a timer or channel made outside it")
	}
}

// bubbleRoundTrip boots a two-machine SimNet, does one echo
// transaction over it and closes everything it made.
func bubbleRoundTrip(latency time.Duration) error {
	n := amnet.NewSimNet(amnet.SimConfig{Latency: latency})
	defer n.Close()
	var fbs [2]*fbox.FBox
	for i := range fbs {
		nic, err := n.Attach()
		if err != nil {
			return err
		}
		fbs[i] = fbox.New(nic, nil)
		defer fbs[i].Close()
	}
	src := crypto.NewSeededSource(0xB0BB1E)
	srv := NewServerWithConfig(fbs[1], ServerConfig{Source: src, MaxInflight: 2})
	srv.Handle(0x42, func(_ context.Context, _ Meta, req Request) Reply { return OkReply(req.Data) })
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	res := locate.New(fbs[0], locate.Config{Timeout: time.Second, Attempts: 3})
	c := NewClient(fbs[0], res, ClientConfig{Timeout: time.Second, Source: src})
	rep, err := c.Trans(context.Background(), srv.PutPort(), Request{Op: 0x42, Data: []byte("hi")})
	if err == nil && string(rep.Data) != "hi" {
		err = rep.Status.Err()
	}
	return err
}
