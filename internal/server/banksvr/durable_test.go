package banksvr

import (
	"context"
	"testing"

	"amoeba/internal/cap"
	"amoeba/internal/server/servertest"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// newDurableBank boots a durable bank over a fresh WAL disk.
func newDurableBank(t *testing.T, r *servertest.Rig, cfg Config) (*Server, *vdisk.Disk) {
	t.Helper()
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := vdisk.New(512, 512)
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(disk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDurable(r.NewFBox(t), scheme, r.Src, cfg, log, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, disk
}

// replayBank recovers a frozen disk image into a fresh, never-started
// server for white-box inspection.
func replayBank(t *testing.T, r *servertest.Rig, s *Server, cfg Config, img *vdisk.Disk) *Server {
	t.Helper()
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	rlog, err := wal.Open(img, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rlog.Close() })
	rs, err := NewDurable(r.NewFBox(t), scheme, r.Src, cfg, rlog, s.GetPort())
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// moneySupply sums a currency over the treasury and every account.
func (s *Server) moneySupply(cur string) int64 {
	total := s.treasury[cur]
	s.accounts.Range(func(_ uint32, a *account) bool {
		total += a.balances[cur]
		return true
	})
	return total
}

// TestDurableTreasuryBackedReplay: with minting OFF, every grant,
// transfer, conversion and destruction must replay to the exact
// balances — and the total money supply (treasury included) must be
// identical before and after the crash.
func TestDurableTreasuryBackedReplay(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xBA9C)
	cfg := Config{
		Treasury: map[string]int64{"dollar": 10_000, "franc": 500},
		Rates: map[[2]string]Rate{
			{"dollar", "franc"}: {Num: 5, Den: 1},
		},
	}
	s, disk := newDurableBank(t, r, cfg)
	bc := NewClient(r.Client, s.PutPort())

	a, err := bc.CreateAccount(ctx, "dollar", 600)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bc.CreateAccount(ctx, "dollar", 400)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := bc.CreateAccount(ctx, "dollar", 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.Transfer(ctx, a, b, "dollar", 150); err != nil {
		t.Fatal(err)
	}
	if err := bc.Convert(ctx, b, "dollar", "franc", 100); err != nil {
		t.Fatal(err)
	}
	if err := bc.DestroyAccount(ctx, dead); err != nil {
		t.Fatal(err)
	}

	rs := replayBank(t, r, s, cfg, disk.Clone())
	// Balances: a = 600-150 = 450 dollars; b = 400+150-100 = 450
	// dollars + 500 francs.
	ra, _ := rs.accounts.Get(a.Object)
	if ra == nil || ra.balances["dollar"] != 450 {
		t.Fatalf("account a replayed wrong: %+v", ra)
	}
	rb, _ := rs.accounts.Get(b.Object)
	if rb == nil || rb.balances["dollar"] != 450 || rb.balances["franc"] != 500 {
		t.Fatalf("account b replayed wrong: %+v", rb)
	}
	if _, ok := rs.accounts.Get(dead.Object); ok {
		t.Fatal("destroyed account resurrected by replay")
	}
	// The destroyed account's 50 dollars went back to the treasury:
	// 10000 - 600 - 400 - 50 + 50 = 9000.
	if rs.treasury["dollar"] != 9000 {
		t.Fatalf("treasury replayed to %d dollars, want 9000", rs.treasury["dollar"])
	}
	// Dollar supply shrinks only by conversion (100), never by crash.
	if got := rs.moneySupply("dollar"); got != 10_000-100 {
		t.Fatalf("dollar supply %d after replay, want %d", got, 10_000-100)
	}
	// Replayed capabilities still validate.
	if _, err := rs.Table().Demand(a, cap.RightWrite); err != nil {
		t.Fatalf("pre-crash capability rejected after replay: %v", err)
	}
}

// TestDurableTreasuryBackedCheckpoint is TestDurableTreasuryBackedReplay
// recovered from a checkpoint instead of a replay: the treasury is the
// one piece of checkpoint state that belongs to no object, and it must
// come back beside every account's balances, the money supply exact.
func TestDurableTreasuryBackedCheckpoint(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xBA9E)
	cfg := Config{
		Treasury: map[string]int64{"dollar": 10_000, "franc": 500},
		Rates: map[[2]string]Rate{
			{"dollar", "franc"}: {Num: 5, Den: 1},
		},
	}
	s, disk := newDurableBank(t, r, cfg)
	bc := NewClient(r.Client, s.PutPort())

	a, err := bc.CreateAccount(ctx, "dollar", 600)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bc.CreateAccount(ctx, "franc", 200)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := bc.CreateAccount(ctx, "dollar", 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.Transfer(ctx, a, b, "dollar", 150); err != nil {
		t.Fatal(err)
	}
	if err := bc.Convert(ctx, b, "dollar", "franc", 100); err != nil {
		t.Fatal(err)
	}
	if err := bc.DestroyAccount(ctx, dead); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := s.LogStats().Checkpoints; n == 0 {
		t.Fatal("Checkpoint wrote no checkpoint")
	}

	rs := replayBank(t, r, s, cfg, disk.Clone())
	// a = 600-150 = 450 dollars; b = 150-100 = 50 dollars and
	// 200+500 = 700 francs.
	ra, _ := rs.accounts.Get(a.Object)
	if ra == nil || len(ra.balances) != 1 || ra.balances["dollar"] != 450 {
		t.Fatalf("account a restored wrong: %+v", ra)
	}
	rb, _ := rs.accounts.Get(b.Object)
	if rb == nil || len(rb.balances) != 2 || rb.balances["dollar"] != 50 || rb.balances["franc"] != 700 {
		t.Fatalf("account b restored wrong: %+v", rb)
	}
	if _, ok := rs.accounts.Get(dead.Object); ok {
		t.Fatal("destroyed account resurrected by the checkpoint")
	}
	if n := rs.accounts.Len(); n != 2 {
		t.Fatalf("%d accounts restored, want 2", n)
	}
	// 10000 - 600 - 50 + 50 dollars and 500 - 200 francs.
	if rs.treasury["dollar"] != 9400 || rs.treasury["franc"] != 300 || len(rs.treasury) != 2 {
		t.Fatalf("treasury restored to %v, want 9400 dollars and 300 francs", rs.treasury)
	}
	if got := rs.moneySupply("dollar"); got != 10_000-100 {
		t.Fatalf("dollar supply %d after restore, want %d", got, 10_000-100)
	}
	if got := rs.moneySupply("franc"); got != 500+500 {
		t.Fatalf("franc supply %d after restore, want %d", got, 500+500)
	}
	if _, err := rs.Table().Demand(b, cap.RightWrite); err != nil {
		t.Fatalf("pre-checkpoint capability rejected after restore: %v", err)
	}
}

// TestDurableUnackedOpInvisible: an operation whose record never made
// it to the disk image (the crash window before group commit) must not
// appear in the replay — the model is exactly the acknowledged state.
func TestDurableUnackedOpInvisible(t *testing.T) {
	ctx := context.Background()
	r := servertest.New(t, 0xBA9D)
	cfg := Config{MintingAllowed: true}
	s, disk := newDurableBank(t, r, cfg)
	bc := NewClient(r.Client, s.PutPort())

	a, err := bc.CreateAccount(ctx, "dollar", 100)
	if err != nil {
		t.Fatal(err)
	}
	img := disk.Clone() // crash point: before the transfer below
	b, err := bc.CreateAccount(ctx, "dollar", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.Transfer(ctx, a, b, "dollar", 30); err != nil {
		t.Fatal(err)
	}

	rs := replayBank(t, r, s, cfg, img)
	ra, _ := rs.accounts.Get(a.Object)
	if ra == nil || ra.balances["dollar"] != 100 {
		t.Fatalf("crash-point replay saw post-crash ops: %+v", ra)
	}
	if _, ok := rs.accounts.Get(b.Object); ok {
		t.Fatal("account created after the crash point exists in replay")
	}
}
