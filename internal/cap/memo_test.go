package cap

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// The tests in this file pin the validation memo (Table.Validate): each
// one first warms the memo with the capability it then expects to see
// rejected, so a memo that outlived its secret, or remembered a failed
// check, would answer instead of the scheme.

// weakOf returns a second capability for owner's object and the rights
// it conveys: a server-restricted copy, or under scheme 0, which cannot
// restrict, the owner with a tampered (and ignored) rights field.
func weakOf(t *testing.T, tb *Table, owner Capability) (Capability, Rights) {
	t.Helper()
	if tb.Scheme().ID() == SchemeCompare {
		weak := owner
		weak.Rights = RightRead
		return weak, AllRights
	}
	weak, err := tb.Restrict(owner, RightRead|RightRevoke)
	if err != nil {
		t.Fatal(err)
	}
	return weak, RightRead | RightRevoke
}

// warm validates each capability twice. The first capability warmed
// into an entry with no memo is stored and answers its second call;
// any later one computes F both times, as the memo keeps the first.
func warm(t *testing.T, tb *Table, caps ...Capability) {
	t.Helper()
	for _, c := range caps {
		for i := 0; i < 2; i++ {
			if _, err := tb.Validate(c); err != nil {
				t.Fatalf("warming %v: %v", c, err)
			}
		}
	}
}

func mustFail(t *testing.T, tb *Table, c Capability, after string) {
	t.Helper()
	if r, err := tb.Validate(c); !errors.Is(err, ErrInvalidCapability) {
		t.Fatalf("after %s: stale capability validated (rights %v, err %v)", after, r, err)
	}
}

func TestMemoDroppedOnRekey(t *testing.T) {
	for _, id := range AllSchemeIDs() {
		t.Run(id.String(), func(t *testing.T) {
			tb := newTestTable(t, id)
			owner, err := tb.Create()
			if err != nil {
				t.Fatal(err)
			}
			weak, _ := weakOf(t, tb, owner)

			warm(t, tb, weak, owner)
			fresh, err := tb.Revoke(owner)
			if err != nil {
				t.Fatal(err)
			}
			mustFail(t, tb, owner, "Revoke")
			mustFail(t, tb, weak, "Revoke")

			// A replayed revoke record re-keys through ReplaceSecret.
			warm(t, tb, fresh)
			replayed := tb.Scheme().PrepareSecret(0x5eed_0001)
			tb.ReplaceSecret(owner.Object, replayed)
			mustFail(t, tb, fresh, "ReplaceSecret")
			replayedCap := tb.Scheme().Mint(tb.Server(), owner.Object, replayed)
			warm(t, tb, replayedCap)

			// A replayed create overwrites through InstallSecret.
			tb.InstallSecret(owner.Object, tb.Scheme().PrepareSecret(0x5eed_0002))
			mustFail(t, tb, replayedCap, "InstallSecret")
		})
	}
}

func TestMemoObjectReuseRejectsOldCapability(t *testing.T) {
	// The block server's ABA: a block freed and reallocated under the
	// same number while a request holding the old capability waits for
	// the block lock.
	for _, id := range AllSchemeIDs() {
		t.Run(id.String(), func(t *testing.T) {
			tb := newTestTable(t, id)
			old, err := tb.CreateObject(42)
			if err != nil {
				t.Fatal(err)
			}
			warm(t, tb, old)
			if err := tb.DestroyObject(42); err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Validate(old); !errors.Is(err, ErrNoSuchObject) {
				t.Fatalf("destroyed object validated: %v", err)
			}
			reborn, err := tb.CreateObject(42)
			if err != nil {
				t.Fatal(err)
			}
			mustFail(t, tb, old, "DestroyObject + CreateObject")
			warm(t, tb, reborn)
			mustFail(t, tb, old, "warming the reborn object")

			// ForgetObject (a migration away) drops the memo too.
			tb.ForgetObject(42)
			tb.InstallSecret(42, tb.Scheme().PrepareSecret(0x5eed_0003))
			mustFail(t, tb, reborn, "ForgetObject + InstallSecret")
		})
	}
}

func TestMemoNeverStoresFailedCheck(t *testing.T) {
	for _, id := range AllSchemeIDs() {
		t.Run(id.String(), func(t *testing.T) {
			tb := newTestTable(t, id)
			owner, err := tb.Create()
			if err != nil {
				t.Fatal(err)
			}
			forged := owner
			forged.Check ^= 1
			mustFail(t, tb, forged, "nothing")
			warm(t, tb, owner)
			mustFail(t, tb, forged, "the genuine capability")
			mustFail(t, tb, forged, "the forged capability")
			if r, err := tb.Validate(owner); err != nil || r != AllRights {
				t.Fatalf("owner after forgeries: %v, %v", r, err)
			}
			// A check wider than its 48 bits must not alias the owner's
			// memo: packed naively, bit 48 of the check lands on the
			// owner's lowest rights bit. The table answers it as the
			// scheme does.
			wide := owner
			wide.Check |= 1 << 48
			secret, _ := tb.SecretOf(owner.Object)
			_, want := tb.Scheme().Validate(wide, secret)
			for i := 0; i < 2; i++ {
				if _, err := tb.Validate(wide); (err == nil) != (want == nil) {
					t.Fatalf("wide check: table says %v, scheme says %v", err, want)
				}
			}
		})
	}
}

func TestMemoRestrictedAndOwnerAlternate(t *testing.T) {
	for _, id := range AllSchemeIDs() {
		t.Run(id.String(), func(t *testing.T) {
			tb := newTestTable(t, id)
			owner, err := tb.Create()
			if err != nil {
				t.Fatal(err)
			}
			weak, weakRights := weakOf(t, tb, owner)
			for i := 0; i < 6; i++ {
				c, want := owner, AllRights
				if i%2 == 1 {
					c, want = weak, weakRights
				}
				for j := 0; j < 2; j++ {
					if r, err := tb.Validate(c); err != nil || r != want {
						t.Fatalf("round %d.%d: rights %v, err %v; want %v", i, j, r, err, want)
					}
				}
			}
			if id != SchemeCompare {
				if _, err := tb.Demand(weak, RightWrite); !errors.Is(err, ErrPermission) {
					t.Fatalf("restricted capability granted write after the owner's memo: %v", err)
				}
			}
		})
	}
}

func TestMemoRestoreDropsEveryMemo(t *testing.T) {
	for _, id := range AllSchemeIDs() {
		t.Run(id.String(), func(t *testing.T) {
			tb := newTestTable(t, id)
			var before, after []Capability
			for i := 0; i < 8; i++ {
				c, err := tb.Create()
				if err != nil {
					t.Fatal(err)
				}
				before = append(before, c)
			}
			snap := tb.Snapshot()
			for _, c := range before {
				fresh, err := tb.Revoke(c)
				if err != nil {
					t.Fatal(err)
				}
				after = append(after, fresh)
			}
			warm(t, tb, after...)
			if err := tb.Restore(snap); err != nil {
				t.Fatal(err)
			}
			for i := range before {
				mustFail(t, tb, after[i], "Restore")
				if _, err := tb.Validate(before[i]); err != nil {
					t.Fatalf("capability %d from the snapshot rejected: %v", i, err)
				}
			}
		})
	}
}

func TestMemoRevokeRace(t *testing.T) {
	// Run under -race. Validators hammer an object's owner and
	// restricted capabilities, storing memos as they go, while the
	// object is revoked: a Validate that starts after Revoke returned
	// must reject the old capabilities, whatever memo write was in
	// flight when the secret changed.
	for _, id := range AllSchemeIDs() {
		t.Run(id.String(), func(t *testing.T) {
			tb := newTestTable(t, id)
			for round := 0; round < 40; round++ {
				owner, err := tb.Create()
				if err != nil {
					t.Fatal(err)
				}
				weak, _ := weakOf(t, tb, owner)
				var revoked atomic.Bool
				var wg sync.WaitGroup
				started := make(chan struct{}, 4)
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < 200; i++ {
							c := owner
							if (g+i)%2 == 1 {
								c = weak
							}
							after := revoked.Load()
							_, err := tb.Validate(c)
							if i == 0 {
								started <- struct{}{}
							}
							if after && err == nil {
								t.Errorf("round %d: capability accepted by a Validate that started after Revoke returned", round)
								return
							}
						}
					}(g)
				}
				<-started
				if _, err := tb.Revoke(owner); err != nil {
					t.Fatal(err)
				}
				revoked.Store(true)
				wg.Wait()
				mustFail(t, tb, owner, "the race")
				mustFail(t, tb, weak, "the race")
			}
		})
	}
}
