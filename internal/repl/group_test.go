package repl

import (
	"context"
	"fmt"
	"testing"
	"time"

	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/rpc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// groupRig is a primary counter fanned out to n standby receivers via
// one group shipper.
type groupRig struct {
	primary   *counter
	primaryFB *fbox.FBox
	backups   []*counter
	backupFBs []*fbox.FBox
	recvs     []*Receiver
	ship      *Shipper
}

func newGroupRig(t *testing.T, r *rig, n int, o Options) *groupRig {
	t.Helper()
	g := &groupRig{}
	disk, err := vdisk.New(512, 256)
	if err != nil {
		t.Fatal(err)
	}
	plog, err := wal.Open(disk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.primaryFB = r.attach()
	g.primary = newCounter(t, g.primaryFB, plog, 0)
	if err := g.primary.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.primary.Close() })

	dests := make([]cap.Port, 0, n)
	for i := 0; i < n; i++ {
		bdisk, err := vdisk.New(512, 256)
		if err != nil {
			t.Fatal(err)
		}
		blog, err := wal.Open(bdisk, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fb := r.attach()
		b := newCounter(t, fb, blog, g.primary.GetPort())
		t.Cleanup(func() { b.Close() })
		recv := NewReceiver(fb, crypto.NewSeededSource(uint64(17+i)), b.Kernel)
		if err := recv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { recv.Close() })
		g.backups = append(g.backups, b)
		g.backupFBs = append(g.backupFBs, fb)
		g.recvs = append(g.recvs, recv)
		dests = append(dests, recv.Port())
	}
	g.ship, err = AttachGroup(g.primary.Kernel, r.newClientOn(g.primaryFB), dests, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.ship.Stop)
	return g
}

func (g *groupRig) inc(t *testing.T, r *rig, name string, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := r.client.Trans(ctx, g.primary.PutPort(), rpc.Request{Op: opInc, Data: []byte(name)},
			rpc.WithTimeout(5*time.Second), rpc.WithRetries(0)); err != nil {
			t.Fatalf("inc %s #%d: %v", name, i, err)
		}
	}
}

// TestGroupFanOut: every committed record reaches every standby before
// the client's reply — synchronous replication to the whole live group.
func TestGroupFanOut(t *testing.T) {
	r := newRig(t)
	g := newGroupRig(t, r, 3, Options{})
	g.inc(t, r, "a", 5)
	for i, b := range g.backups {
		if got := b.get("a"); got != 5 {
			t.Fatalf("standby %d holds %d records, want 5 (fan-out must be synchronous)", i, got)
		}
	}
	if lag := g.ship.Lag(); lag != 0 {
		t.Fatalf("healthy fan-out lags %d records", lag)
	}
}

// TestGroupHeartbeatsKeepLeaseWhileIdle: with no mutations at all, bare
// heartbeat frames renew every peer's grant, so the serving lease stays
// valid and each receiver's contact clock keeps advancing.
func TestGroupHeartbeatsKeepLeaseWhileIdle(t *testing.T) {
	const lt = 30 * time.Millisecond
	r := newRig(t)
	g := newGroupRig(t, r, 2, Options{LeaseTerm: lt, GroupSize: 3, Term: 1})
	g.inc(t, r, "a", 1)
	before := make([]time.Time, len(g.recvs))
	for i, rv := range g.recvs {
		before[i] = rv.LastContact()
	}
	time.Sleep(5 * lt) // idle: only heartbeats cross the channel
	if !g.ship.LeaseValid() {
		t.Fatal("lease lapsed on an idle but healthy group")
	}
	if err := g.ship.Fence(); err != nil {
		t.Fatalf("fence closed on a healthy group: %v", err)
	}
	for i, rv := range g.recvs {
		if !rv.LastContact().After(before[i]) {
			t.Fatalf("standby %d's contact clock never advanced while idle", i)
		}
	}
	if s := g.ship.Stats(); s.Heartbeats == 0 {
		t.Fatalf("no heartbeats recorded: %+v", s)
	}
}

// TestGroupLeaseLapsesWithoutQuorum: when every standby goes silent the
// grants age out and Fence closes within a lease term — the primary
// stops acknowledging durable ops on its own clock, no election needed.
func TestGroupLeaseLapsesWithoutQuorum(t *testing.T) {
	const lt = 30 * time.Millisecond
	r := newRig(t)
	g := newGroupRig(t, r, 2, Options{
		LeaseTerm: lt, GroupSize: 3, Term: 1,
		Timeout: 10 * time.Millisecond, Attempts: 2, Backoff: time.Millisecond,
	})
	g.inc(t, r, "a", 1)
	for _, rv := range g.recvs {
		rv.Close() // both standby machines go dark
	}
	deadline := time.Now().Add(3 * time.Second)
	for g.ship.LeaseValid() {
		if time.Now().After(deadline) {
			t.Fatal("lease never lapsed after the whole group went silent")
		}
		time.Sleep(lt / 4)
	}
	if err := g.ship.Fence(); err == nil {
		t.Fatal("fence open with a lapsed lease")
	}
}

// TestGroupSealsWhenBatchMissesMajority: a commit that cannot reach a
// majority of the configured group seals the shipper — Fence refuses
// every later acknowledgement, stickily, because a successor could be
// elected among peers that never saw the batch.
func TestGroupSealsWhenBatchMissesMajority(t *testing.T) {
	r := newRig(t)
	g := newGroupRig(t, r, 2, Options{
		LeaseTerm: 50 * time.Millisecond, GroupSize: 3, Term: 1,
		Timeout: 10 * time.Millisecond, Attempts: 2, Backoff: time.Millisecond,
	})
	g.inc(t, r, "a", 1)
	for _, rv := range g.recvs {
		rv.Close()
	}
	// This op commits locally but ships nowhere: 1 < majority(3) = 2.
	g.inc(t, r, "orphan", 1)
	if s := g.ship.Stats(); !s.Sealed {
		t.Fatalf("batch missed majority but the shipper is not sealed: %+v", s)
	}
	if err := g.ship.Fence(); err != ErrSealed {
		t.Fatalf("fence after missed majority: %v, want ErrSealed", err)
	}
}

// TestGroupSurvivesMinorityLoss: losing one standby of three neither
// seals the group nor lapses the lease — the survivor plus the primary
// is still a majority, and the lost peer is shipped around.
func TestGroupSurvivesMinorityLoss(t *testing.T) {
	const lt = 40 * time.Millisecond
	r := newRig(t)
	g := newGroupRig(t, r, 2, Options{
		LeaseTerm: lt, GroupSize: 3, Term: 1,
		Timeout: 10 * time.Millisecond, Attempts: 2, Backoff: time.Millisecond,
		Reprobe: time.Hour, // keep the dead peer dead for this test
	})
	g.inc(t, r, "a", 2)
	g.recvs[0].Close()
	g.inc(t, r, "b", 3) // first op burns the attempt budget, peer goes lost
	if g.ship.LostPeers() != 1 {
		t.Fatalf("lost peers %d, want 1", g.ship.LostPeers())
	}
	if err := g.ship.Fence(); err != nil {
		t.Fatalf("fence closed after a minority loss: %v", err)
	}
	if got := g.backups[1].get("b"); got != 3 {
		t.Fatalf("surviving standby holds %d 'b' records, want 3", got)
	}
	time.Sleep(2 * lt)
	if !g.ship.LeaseValid() {
		t.Fatal("lease lapsed with a full majority still granting")
	}
}

// TestGroupReprobeRebasesReturningPeer: a peer lost to a partition is
// slow-reprobed, and on contact is re-based through the snapshot path —
// it rejoins the live group holding the full state, no operator verb.
func TestGroupReprobeRebasesReturningPeer(t *testing.T) {
	r := newRig(t)
	g := newGroupRig(t, r, 2, Options{
		LeaseTerm: 40 * time.Millisecond, GroupSize: 3, Term: 1,
		Timeout: 10 * time.Millisecond, Attempts: 2, Backoff: time.Millisecond,
		Reprobe: 10 * time.Millisecond,
	})
	g.inc(t, r, "a", 2)
	// Partition standby 0 from the primary (both directions).
	pm, bm := g.primaryFB.Machine(), g.backupFBs[0].Machine()
	r.net.Partition(pm, bm)
	g.inc(t, r, "b", 3)
	if g.ship.LostPeers() != 1 {
		t.Fatalf("lost peers %d, want 1", g.ship.LostPeers())
	}
	r.net.Heal(pm, bm)
	deadline := time.Now().Add(5 * time.Second)
	for g.ship.LostPeers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("healed peer never re-based")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The re-based peer holds everything, including the ops it missed.
	g.inc(t, r, "c", 1)
	if got := g.backups[0].get("a") + g.backups[0].get("b") + g.backups[0].get("c"); got != 6 {
		t.Fatalf("re-based standby holds %d records, want 6", got)
	}
	if s := g.ship.Stats(); s.Rebases == 0 {
		t.Fatalf("no rebase recorded: %+v", s)
	}
}

// TestGroupStaleTermDeposesOldPrimary: a receiver that has adopted a
// newer term bounces lower-term frames with StatusStale and does not
// refresh its contact clock for them — and the old shipper goes
// permanently deposed the moment it sees the bounce.
func TestGroupStaleTermDeposesOldPrimary(t *testing.T) {
	ctx := context.Background()
	r := newRig(t)
	g := newGroupRig(t, r, 1, Options{LeaseTerm: time.Hour, GroupSize: 3, Term: 3})
	g.inc(t, r, "a", 1)

	// A successor at term 4 announces itself (a bare heartbeat is
	// enough to advance the receiver's epoch).
	raw := r.newClientOn(r.attach())
	rep, err := raw.Trans(ctx, g.recvs[0].Port(), rpc.Request{Op: OpShip, Data: EncodeHeartbeat(4)})
	if err != nil || rep.Status != rpc.StatusOK {
		t.Fatalf("term-4 heartbeat: %v %+v", err, rep)
	}
	if g.recvs[0].Term() != 4 {
		t.Fatalf("receiver term %d, want 4", g.recvs[0].Term())
	}
	contact := g.recvs[0].LastContact()

	// The term-3 primary's next frame must bounce and not read as life.
	rep, err = raw.Trans(ctx, g.recvs[0].Port(), rpc.Request{Op: OpShip, Data: EncodeHeartbeat(3)})
	if err != nil || rep.Status != rpc.StatusStale {
		t.Fatalf("stale heartbeat: %v %+v", err, rep)
	}
	if g.recvs[0].LastContact().After(contact) {
		t.Fatal("a stale-term frame refreshed the contact clock (would suppress the failure detector)")
	}

	// And through the shipper itself: the next commit's ship sees the
	// bounce and deposes this primary for good.
	g.inc(t, r, "b", 1)
	if err := g.ship.Fence(); err != ErrDeposed {
		t.Fatalf("fence after stale bounce: %v, want ErrDeposed", err)
	}
	if s := g.ship.Stats(); !s.Deposed {
		t.Fatalf("deposition not recorded: %+v", s)
	}
}

// TestClockSkewLeaseLapsesBeforeDetectorFires is the split-brain timing
// guarantee under clock skew: the primary measures its lease on its own
// clock from frame SEND time, the standby measures silence on ITS clock
// from frame RECEIVE time, and the detector gap (1.5 terms) exceeds the
// lease term by the tolerated skew (term/2). Even when the standby's
// clock STEPS forward by almost half a term right after the last
// contact — the worst tolerated case, firing the detector as early as
// it can fire — the old primary's lease has already lapsed by the time
// onExpire runs. The assertion is made at the fire instant itself.
func TestClockSkewLeaseLapsesBeforeDetectorFires(t *testing.T) {
	const lt = 100 * time.Millisecond

	r := newRig(t)
	pfb := r.attach()
	primary := newCounter(t, pfb, newLog(t), 0)
	if err := primary.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })

	// The standby machine's clock is the skewed one: its receiver and
	// detector read it through the machine's NIC.
	bfb, sc := r.attachSkewed()
	backup := newCounter(t, bfb, newLog(t), primary.GetPort())
	t.Cleanup(func() { backup.Close() })
	recv := NewReceiver(bfb, crypto.NewSeededSource(23), backup.Kernel)
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })

	ship, err := AttachGroup(primary.Kernel, r.newClientOn(pfb), []cap.Port{recv.Port()}, Options{
		LeaseTerm: lt, GroupSize: 3, Term: 1,
		Timeout: 10 * time.Millisecond, Attempts: 2, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ship.Stop)

	// One acknowledged op: grant stamped on the primary's clock, contact
	// on the standby's.
	if _, err := r.client.Trans(context.Background(), primary.PutPort(),
		rpc.Request{Op: opInc, Data: []byte("a")}, rpc.WithTimeout(5*time.Second), rpc.WithRetries(0)); err != nil {
		t.Fatal(err)
	}
	// The primary falls silent (its machine dies); no more renewals.
	recv.Close()

	// The detector the standby would run, on the standby's clock, with
	// the fence checked AT THE FIRE INSTANT — the moment a successor
	// would start an election.
	fenceAtFire := make(chan error, 1)
	det := NewDetector(recv, lt*3/2, func() {
		fenceAtFire <- ship.Fence()
	})
	det.Start()
	t.Cleanup(det.Stop)

	// Worst tolerated skew: the standby's clock steps forward by just
	// under half a term immediately after the last contact, pulling the
	// detector's firing as early as the design tolerates.
	sc.off.Store(int64(lt/2 - lt/10))

	// Both clocks now tick in lockstep. The detector fires once
	// standby-silence exceeds 1.5 terms — at which point primary-silence
	// is > 1.0 term and the lease has already lapsed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case err := <-fenceAtFire:
			if err == nil {
				t.Fatal("detector fired while the old primary's lease was still valid: split-brain window")
			}
			if ship.LeaseValid() {
				t.Fatal("lease still valid after the fire instant")
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("detector never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGroupAddPeerJoinsLive: AddPeer re-bases a brand-new standby into
// a running group with no gap — the re-integration path Restart uses.
func TestGroupAddPeerJoinsLive(t *testing.T) {
	r := newRig(t)
	g := newGroupRig(t, r, 1, Options{LeaseTerm: 40 * time.Millisecond, GroupSize: 3, Term: 1})
	g.inc(t, r, "a", 3)

	disk, err := vdisk.New(512, 256)
	if err != nil {
		t.Fatal(err)
	}
	blog, err := wal.Open(disk, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fb := r.attach()
	b := newCounter(t, fb, blog, g.primary.GetPort())
	t.Cleanup(func() { b.Close() })
	recv := NewReceiver(fb, crypto.NewSeededSource(29), b.Kernel)
	if err := recv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })

	if err := g.ship.AddPeer(recv.Port()); err != nil {
		t.Fatal(err)
	}
	if got := b.get("a"); got != 3 {
		t.Fatalf("joined peer's base snapshot holds %d records, want 3", got)
	}
	g.inc(t, r, "b", 2)
	if got := b.get("b"); got != 2 {
		t.Fatalf("joined peer missed %d streamed records", 2-b.get("b"))
	}
	if lag := g.ship.Lag(); lag != 0 {
		t.Fatalf("group lags %d after a live join", lag)
	}
}

// TestGroupJoinShipsMultiFrameBase: a base snapshot bigger than one ship
// frame joins through AttachGroup and AddPeer at a real term — to a
// fresh receiver (term 0) and to one still based at the previous
// primary's term. The acknowledgement of a buffered base fragment cannot
// yet carry a position in the new term; it must still read as "on this
// stream", or the shipper declares the peer lost mid-base and no
// directory past ~1,300 entries can ever take a standby back.
func TestGroupJoinShipsMultiFrameBase(t *testing.T) {
	r := newRig(t)
	node := func(g cap.Port) (*counter, *fbox.FBox) {
		t.Helper()
		disk, err := vdisk.New(8192, 256) // room for the fat checkpoint
		if err != nil {
			t.Fatal(err)
		}
		log, err := wal.Open(disk, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fb := r.attach()
		c := newCounter(t, fb, log, g)
		t.Cleanup(func() { c.Close() })
		return c, fb
	}
	standby := func(seed uint64) (*counter, *Receiver) {
		t.Helper()
		b, fb := node(0)
		recv := NewReceiver(fb, crypto.NewSeededSource(seed), b.Kernel)
		if err := recv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { recv.Close() })
		return b, recv
	}
	// veteran follows a term-1 primary for a few records, which then
	// goes away: it is left based at term 1, numbered in that log.
	veteran, vrecv := standby(31)
	old := newGroupRig(t, r, 0, Options{GroupSize: 1, Term: 1})
	if err := old.ship.AddPeer(vrecv.Port()); err != nil {
		t.Fatal(err)
	}
	old.inc(t, r, "old", 5)
	old.ship.Stop()
	if got := vrecv.Pos(); got.Term != 1 || got.Seq == 0 {
		t.Fatalf("veteran at %+v, want a position in term 1", got)
	}

	// The term-2 primary (its own put-port) holds state that snapshots
	// to more than one frame.
	const names = 700
	g := &groupRig{}
	g.primary, g.primaryFB = node(0xfa7)
	for i := 0; i < names; i++ {
		g.primary.n[fmt.Sprintf("%0200d", i)] = uint64(i + 1)
	}
	if err := g.primary.Start(); err != nil {
		t.Fatal(err)
	}
	fresh, frecv := standby(37)
	var err error
	g.ship, err = AttachGroup(g.primary.Kernel, r.newClientOn(g.primaryFB), []cap.Port{vrecv.Port(), frecv.Port()}, Options{Term: 2, GroupSize: 4})
	if err != nil {
		t.Fatalf("AttachGroup with a multi-frame base: %v", err)
	}
	t.Cleanup(g.ship.Stop)
	if s := frecv.Stats(); s.Frames < 2 || s.Rebased != 1 {
		t.Fatalf("base crossed in %d frame(s), %d installed; the test needs one fragmented base", s.Frames, s.Rebased)
	}
	late, lrecv := standby(41)
	if err := g.ship.AddPeer(lrecv.Port()); err != nil {
		t.Fatalf("AddPeer with a multi-frame base: %v", err)
	}
	g.inc(t, r, "live", 3)
	for name, b := range map[string]*counter{"veteran": veteran, "fresh": fresh, "late": late} {
		if got := b.get(fmt.Sprintf("%0200d", names-1)); got != names {
			t.Fatalf("%s standby's base is missing state (last name = %d)", name, got)
		}
		if b.get("old") != 0 || b.get("live") != 3 {
			t.Fatalf("%s standby holds old=%d live=%d, want 0 3", name, b.get("old"), b.get("live"))
		}
	}
	for _, recv := range []*Receiver{vrecv, frecv, lrecv} {
		if got := recv.Pos(); got.Term != 2 || got.Seq == 0 {
			t.Fatalf("standby at %+v after joining term 2", got)
		}
	}
	if s := g.ship.Stats(); s.Lost || s.Sealed || g.ship.LostPeers() != 0 || g.ship.Lag() != 0 {
		t.Fatalf("group unhealthy after multi-frame joins: %+v lag %d", s, g.ship.Lag())
	}
}

// TestGroupFirstBaseFailureStartsLost: a destination that cannot take
// its first base does not fail AttachGroup — it starts out lost (reprobe
// re-joins it like any other loss), and the group serves on the
// majority that took theirs.
func TestGroupFirstBaseFailureStartsLost(t *testing.T) {
	r := newRig(t)
	pfb := r.attach()
	primary := newCounter(t, pfb, newLog(t), 0)
	if err := primary.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	var dests []cap.Port
	var recvs []*Receiver
	for i := 0; i < 2; i++ {
		fb := r.attach()
		b := newCounter(t, fb, newLog(t), primary.GetPort())
		t.Cleanup(func() { b.Close() })
		recv := NewReceiver(fb, crypto.NewSeededSource(uint64(31+i)), b.Kernel)
		if err := recv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { recv.Close() })
		dests, recvs = append(dests, recv.Port()), append(recvs, recv)
	}
	recvs[1].Close() // a dead port: every base attempt times out

	ship, err := AttachGroup(primary.Kernel, r.newClientOn(pfb), dests, Options{
		GroupSize: 3, Term: 1, Timeout: 20 * time.Millisecond, Attempts: 2, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("AttachGroup failed on one dead destination of two: %v", err)
	}
	t.Cleanup(ship.Stop)
	if got := ship.LostPeers(); got != 1 {
		t.Fatalf("%d peers lost after attach, want the dead one", got)
	}
	primary.SetReplicaFence(ship.Fence)
	if _, err := r.client.Trans(context.Background(), primary.PutPort(), rpc.Request{Op: opInc, Data: []byte("a")},
		rpc.WithTimeout(5*time.Second), rpc.WithRetries(0)); err != nil {
		t.Fatal(err)
	}
	if s := ship.Stats(); s.Sealed || recvs[0].Pos().Seq == 0 {
		t.Fatalf("the live majority did not carry the commit: %+v, standby at %+v", s, recvs[0].Pos())
	}
}

// TestGroupUnroutedPeerDelaysNoHeartbeat: a destination that could not
// be located at attach (its receiver is gone, so every LOCATE for it
// goes unanswered) starts out lost with no route. The heartbeat tick
// must not wait on a LOCATE for it: the live standby's beats keep their
// LeaseTerm/3 cadence and the lease stays valid term after term.
func TestGroupUnroutedPeerDelaysNoHeartbeat(t *testing.T) {
	const lt = 90 * time.Millisecond
	r := newRig(t)
	pfb := r.attach()
	primary := newCounter(t, pfb, newLog(t), 0)
	if err := primary.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	var dests []cap.Port
	var recvs []*Receiver
	for i := 0; i < 2; i++ {
		fb := r.attach()
		b := newCounter(t, fb, newLog(t), primary.GetPort())
		t.Cleanup(func() { b.Close() })
		recv := NewReceiver(fb, crypto.NewSeededSource(uint64(41+i)), b.Kernel)
		if err := recv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { recv.Close() })
		dests, recvs = append(dests, recv.Port()), append(recvs, recv)
	}
	recvs[0].Close() // listed first: a tick that located it would stall before the live beat

	ship, err := AttachGroup(primary.Kernel, r.newClientOn(pfb), dests, Options{
		LeaseTerm: lt, GroupSize: 3, Term: 1, Reprobe: lt,
		Timeout: lt / 3, Attempts: 1, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("AttachGroup failed on one unlocatable destination of two: %v", err)
	}
	t.Cleanup(ship.Stop)
	if got := ship.LostPeers(); got != 1 {
		t.Fatalf("%d peers lost after attach, want the unlocatable one", got)
	}

	live := recvs[1]
	last, gap := live.LastContact(), time.Duration(0)
	for end := time.Now().Add(6 * lt); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
		if !ship.LeaseValid() {
			t.Fatal("lease lapsed while the live standby of a majority was reachable")
		}
		if c := live.LastContact(); c.After(last) {
			gap, last = max(gap, c.Sub(last)), c
		}
	}
	if gap == 0 || gap >= lt {
		t.Fatalf("longest silence toward the live standby %v, want heartbeats at %v (well inside the %v term)", gap, lt/3, lt)
	}
}
