package repl

import (
	"errors"
	"testing"

	"amoeba/internal/rpc"
)

// TestFenceErrorTaxonomy pins the transient/permanent split the RPC
// layer routes on: permanent authority loss wraps rpc.ErrStaleAuthority
// (servers answer StatusStale, clients evict the route and re-locate at
// once), while a lapsed lease stays a plain overload (the same primary
// may be re-granted within a term, so clients back off in place).
func TestFenceErrorTaxonomy(t *testing.T) {
	for _, e := range []error{ErrSealed, ErrDeposed, ErrSelfDemoted} {
		if !errors.Is(e, rpc.ErrStaleAuthority) {
			t.Errorf("%v should wrap rpc.ErrStaleAuthority", e)
		}
	}
	if errors.Is(ErrLeaseLapsed, rpc.ErrStaleAuthority) {
		t.Errorf("ErrLeaseLapsed must NOT wrap rpc.ErrStaleAuthority: a lapsed lease is transient")
	}
}

// TestFencePrecedence drives a bare shipper through its terminal
// states: the fence must name the most specific condition, demotion
// (our own disk is gone) over deposition (someone else won) over the
// seal (a batch missed majority), and every terminal state is sticky
// and idempotent.
func TestFencePrecedence(t *testing.T) {
	// A group of one: the primary's own grant is the majority, so the
	// lease never lapses and only the terminal states speak.
	s := &Shipper{c: newRig(t).client, o: Options{GroupSize: 1}.withDefaults()}
	if err := s.Fence(); err != nil {
		t.Fatalf("fresh shipper fence = %v, want nil", err)
	}
	s.sealed.Store(true)
	if err := s.Fence(); !errors.Is(err, ErrSealed) {
		t.Fatalf("sealed fence = %v, want ErrSealed", err)
	}
	s.Depose()
	s.Depose() // idempotent
	if err := s.Fence(); !errors.Is(err, ErrDeposed) {
		t.Fatalf("deposed fence = %v, want ErrDeposed", err)
	}
	if !s.Stats().Deposed {
		t.Fatal("Stats().Deposed = false after Depose")
	}
	s.SelfDemote()
	s.SelfDemote() // idempotent
	if err := s.Fence(); !errors.Is(err, ErrSelfDemoted) {
		t.Fatalf("demoted fence = %v, want ErrSelfDemoted", err)
	}
	if !s.Demoted() || !s.Stats().Demoted {
		t.Fatal("Demoted() or Stats().Demoted false after SelfDemote")
	}
}
