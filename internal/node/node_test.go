package node

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"amoeba/internal/cap"
	"amoeba/internal/obs"
	"amoeba/internal/rpc"
	"amoeba/internal/server/blocksvr"
	"amoeba/internal/server/dirsvr"
	"amoeba/internal/server/servertest"
	"amoeba/internal/svc"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

func testEnv(t *testing.T, rig *servertest.Rig) *Env {
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	return &Env{Scheme: scheme, Source: rig.Src, Metrics: obs.NewRegistry(), Ring: obs.NewRing(64)}
}

// TestEveryRowServes boots the whole table on one machine, the way
// amoebad does: every row answers at the put-port it reports, under the
// label it was opened with, and Gauges adds its queue series.
func TestEveryRowServes(t *testing.T) {
	rig := servertest.New(t, 1)
	env := testEnv(t, rig)
	fb := rig.NewFBox(t)
	disk, err := vdisk.New(64, 512)
	if err != nil {
		t.Fatal(err)
	}
	var blocks *blocksvr.Client
	for _, row := range Services {
		if Lookup(row.Name) != row {
			t.Fatalf("Lookup(%q) does not find its row", row.Name)
		}
		k, err := row.Open(env, fb, row.Label, Deps{Store: disk, Blocks: blocks})
		if err != nil {
			t.Fatal(err)
		}
		Gauges(env.Metrics, row.Label, false, func() *svc.Kernel { return k })
		if err := k.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { k.Close() })
		if row.Name == "block" {
			blocks = blocksvr.NewClient(rig.Client, k.PutPort())
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

// TestDurableRowRecovers: a Durable row given a log writes ahead to it,
// and a second incarnation opened over the same disk at the same
// get-port answers the first one's capabilities.
func TestDurableRowRecovers(t *testing.T) {
	rig := servertest.New(t, 2)
	env := testEnv(t, rig)
	disk, err := vdisk.New(256, 512)
	if err != nil {
		t.Fatal(err)
	}
	row, g := Lookup("dir"), cap.Port(0x1234_5678_9ABC)
	open := func() *svc.Kernel {
		log, err := wal.Open(disk, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		k, err := row.Open(env, rig.NewFBox(t), row.Label, Deps{Log: log, Port: g})
		if err != nil {
			t.Fatal(err)
		}
		if !k.Durable() {
			t.Fatal("a durable incarnation needs a log")
		}
		Gauges(env.Metrics, row.Label, true, func() *svc.Kernel { return k })
		if err := k.Start(); err != nil {
			t.Fatal(err)
		}
		return k
	}
	ctx, dirs := context.Background(), dirsvr.NewClient(rig.Client)
	first := open()
	root, err := dirs.CreateDir(ctx, first.PutPort())
	if err != nil {
		t.Fatal(err)
	}
	if err := dirs.Enter(ctx, root, "kept", root); err != nil {
		t.Fatal(err)
	}
	if err := first.Crash(); err != nil {
		t.Fatal(err)
	}
	second := open()
	defer second.Close()
	if second.PutPort() != first.PutPort() {
		t.Fatalf("put-port moved: %v, was %v", second.PutPort(), first.PutPort())
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
	_, err = Lookup("block").Open(testEnv(t, rig), rig.NewFBox(t), "blocks", Deps{Store: disk, State: []byte("not a snapshot")})
	if err == nil || !strings.Contains(err.Error(), "opening block") {
		t.Fatalf("Open over a garbage state snapshot: %v", err)
	}
	if Lookup("nfs") != nil {
		t.Fatal("Lookup found a service that is not in the table")
	}
}
