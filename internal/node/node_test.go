package node

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"amoeba/internal/cap"
	"amoeba/internal/obs"
	"amoeba/internal/rpc"
	"amoeba/internal/server/dirsvr"
	"amoeba/internal/server/servertest"
	"amoeba/internal/vdisk"
)

func testEnv(t *testing.T, rig *servertest.Rig) *Env {
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	return &Env{Scheme: scheme, Source: rig.Src, Metrics: obs.NewRegistry(), Ring: obs.NewRing(64)}
}

// TestEveryRowServes boots the whole table, a machine per row, the way
// Cluster does (SimNet delivers no LOCATE broadcast to its sender, so a
// file server finds its block server only on another machine): every
// row answers at the put-port it reports, under the label it was opened
// with, and Gauges adds its queue series.
func TestEveryRowServes(t *testing.T) {
	rig := servertest.New(t, 1)
	env := testEnv(t, rig)
	disk, err := vdisk.New(64, 512)
	if err != nil {
		t.Fatal(err)
	}
	var blocks cap.Port
	for _, row := range Services {
		if Lookup(row.Name) != row {
			t.Fatalf("Lookup(%q) does not find its row", row.Name)
		}
		r, err := Open(env, row, rig.NewFBox(t), Deps{Label: row.Label, Store: disk, Blocks: blocks})
		if err != nil {
			t.Fatal(err)
		}
		k := r.Kernel()
		Gauges(env.Metrics, row.Label, false, func() *Replica { return r })
		t.Cleanup(func() { r.Retire(Drained) })
		if err := r.Lead(nil, 0); err != nil {
			t.Fatal(err)
		}
		if row.Name == "block" {
			blocks = k.PutPort()
		}
		rep, err := rig.Client.Trans(context.Background(), k.PutPort(), rpc.Request{Op: rpc.OpEcho, Data: []byte(row.Name)})
		if err != nil || rep.Status != rpc.StatusOK || string(rep.Data) != row.Name {
			t.Fatalf("%s: echo = %v, %v", row.Name, rep, err)
		}
	}
	var out bytes.Buffer
	if err := env.Metrics.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, row := range Services {
		for _, series := range []string{
			`amoeba_requests_total{service="` + row.Label + `",op="echo",status="ok"} 1`,
			`amoeba_queue_depth{service="` + row.Label + `"}`,
			`amoeba_queue_wait_ewma_ns{service="` + row.Label + `"}`,
		} {
			if !strings.Contains(out.String(), series) {
				t.Errorf("metrics lack %s", series)
			}
		}
		if strings.Contains(out.String(), `amoeba_wal_used_bytes{service="`+row.Label+`"}`) {
			t.Errorf("%s: WAL gauges registered for a volatile service", row.Label)
		}
	}
}

// TestDurableRowRecovers: a Durable row given a WAL disk writes ahead to
// it, and a second incarnation opened over the same disk at the same
// get-port answers the first one's capabilities.
func TestDurableRowRecovers(t *testing.T) {
	rig := servertest.New(t, 2)
	env := testEnv(t, rig)
	disk, err := vdisk.New(256, 512)
	if err != nil {
		t.Fatal(err)
	}
	row, g := Lookup("dir"), cap.Port(0x1234_5678_9ABC)
	open := func() *Replica {
		r, err := Open(env, row, rig.NewFBox(t), Deps{Label: row.Label, WAL: disk, Port: g})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Kernel().Durable() || r.Faults() == nil {
			t.Fatal("a durable incarnation needs a log over a fault injector")
		}
		Gauges(env.Metrics, row.Label, true, func() *Replica { return r })
		if err := r.Lead(nil, 0); err != nil {
			t.Fatal(err)
		}
		return r
	}
	ctx, dirs := context.Background(), dirsvr.NewClient(rig.Client)
	first := open()
	root, err := dirs.CreateDir(ctx, first.Kernel().PutPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := dirs.Enter(ctx, root, "kept", root); err != nil {
		t.Fatal(err)
	}
	if err := first.Retire(Crashed); err != nil {
		t.Fatal(err)
	}
	second := open()
	defer second.Retire(Drained)
	if second.Kernel().PutPort() != first.Kernel().PutPort() {
		t.Fatalf("put-port moved: %v, was %v", second.Kernel().PutPort(), first.Kernel().PutPort())
	}
	if got, err := dirs.Lookup(ctx, root, "kept"); err != nil || got != root {
		t.Fatalf("lookup after recovery: %v, %v", got, err)
	}
	var out bytes.Buffer
	if err := env.Metrics.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `amoeba_wal_capacity_bytes{service="directory"}`) {
		t.Error("metrics lack the WAL gauges of a durable service")
	}
}

// TestOpenFailureNamesTheService: a row that cannot be built says which
// one it was.
func TestOpenFailureNamesTheService(t *testing.T) {
	rig := servertest.New(t, 3)
	disk, err := vdisk.New(8, 512)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(testEnv(t, rig), Lookup("block"), rig.NewFBox(t), Deps{Label: "blocks", Store: disk, State: []byte("not a snapshot")})
	if err == nil || !strings.Contains(err.Error(), "opening block") {
		t.Fatalf("Open over a garbage state snapshot: %v", err)
	}
	if Lookup("nfs") != nil {
		t.Fatal("Lookup found a service that is not in the table")
	}
}

// TestReplicaVerbsFailOver drives a three-machine directory group
// through the Replica verbs alone, with no Cluster: a primary leads two
// followers, commits writes, and crashes; both followers' detectors
// fire; the one with the newest Pos leads the other at the next term at
// the same put-port, and every acknowledged write reads back.
func TestReplicaVerbsFailOver(t *testing.T) {
	rig := servertest.New(t, 4)
	env := testEnv(t, rig)
	row, g := Lookup("dir"), cap.Port(0x0BAD_CAFE_F00D)
	open := func() *Replica {
		disk, err := vdisk.New(256, 512)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Open(env, row, rig.NewFBox(t), Deps{Label: row.Label, WAL: disk, Port: g, Group: 3, OwnFB: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Retire(Crashed) })
		return r
	}
	primary, sts := open(), []*Replica{open(), open()}
	fired := make(chan *Replica, len(sts))
	for _, st := range sts {
		if err := st.Follow(); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Lead(sts, 1); err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		st.Arm(func() { fired <- st })
	}

	ctx, dirs := context.Background(), dirsvr.NewClient(rig.Client)
	root, err := dirs.CreateDir(ctx, primary.Kernel().PutPort())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c", "d", "e"}
	for _, name := range names {
		if err := dirs.Enter(ctx, root, name, root); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range sts {
		if !st.Hears() || st.Fired() {
			t.Fatal("a follower of a live primary does not hear it")
		}
	}

	primary.Depose()
	if err := primary.Retire(Crashed); err != nil {
		t.Fatal(err)
	}
	for range sts {
		<-fired
	}
	var win *Replica
	for _, st := range sts {
		if st.Hears() || !st.Fired() {
			t.Fatal("a follower of a crashed primary still hears it")
		}
		st.Disarm()
		if win == nil || win.Pos().Less(st.Pos()) {
			win = st
		}
	}
	rest := slices.DeleteFunc(slices.Clone(sts), func(st *Replica) bool { return st == win })
	if err := win.Lead(rest, 2); err != nil {
		t.Fatal(err)
	}
	if win.Kernel().PutPort() != primary.Kernel().PutPort() {
		t.Fatal("the successor serves at another put-port")
	}
	for _, name := range append(names, "after") {
		err := errors.New("not tried")
		for i := 0; i < 50 && err != nil; i++ {
			if name == "after" {
				err = dirs.Enter(ctx, root, name, root)
			} else {
				_, err = dirs.Lookup(ctx, root, name)
			}
		}
		if err != nil {
			t.Fatalf("%s after the failover: %v", name, err)
		}
	}
	if got := win.Ship().Term(); got != 2 {
		t.Fatalf("successor ships at term %d, want 2", got)
	}
}
