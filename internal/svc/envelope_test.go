package svc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/vdisk"
	"amoeba/internal/wal"
)

// blobs is a service with both kinds of checkpoint state: one note that
// belongs to no object, and an opaque blob per object.
type blobs struct {
	*Kernel
	mu   sync.Mutex
	note []byte
	objs map[uint32][]byte
}

func newBlobs(t testing.TB, fb *fbox.FBox, log *wal.Log, g cap.Port) *blobs {
	t.Helper()
	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	b := &blobs{objs: make(map[uint32][]byte)}
	b.Kernel = NewWithConfig(fb, scheme, Config{
		Source:   crypto.NewSeededSource(11),
		Port:     g,
		Log:      log,
		Snapshot: func() []byte { return b.note },
		Restore: func(snap []byte) error {
			b.note, b.objs = bytes.Clone(snap), make(map[uint32][]byte)
			return nil
		},
		EncodeObject: func(obj uint32) ([]byte, error) {
			b.mu.Lock()
			defer b.mu.Unlock()
			state, ok := b.objs[obj]
			if !ok {
				return nil, fmt.Errorf("blob %d: %w", obj, cap.ErrNoSuchObject)
			}
			return state, nil
		},
		InstallObject: func(obj uint32, state []byte) error {
			b.mu.Lock()
			defer b.mu.Unlock()
			b.objs[obj] = bytes.Clone(state)
			return nil
		},
	})
	if err := b.Recover(func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEnvelopeOneEntryPerObject: a checkpoint is the table, the
// object-less state, then one entry per table object with service state;
// restoring it resets the service before installing the entries, and an
// object with no state still keeps its secret through the table.
func TestEnvelopeOneEntryPerObject(t *testing.T) {
	_, fb := newRig(t)
	src := newBlobs(t, fb, nil, 0)
	var caps []cap.Capability
	for i := 0; i < 3; i++ {
		c, err := src.Table().Create()
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, c)
	}
	src.note = []byte("treasury")
	src.objs[caps[0].Object] = []byte("first")
	src.objs[caps[1].Object] = []byte("second!")
	env, err := src.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	tlen := len(src.Table().Snapshot())
	if want := 4 + (4 + tlen) + (4 + len("treasury")) + (8 + len("first")) + (8 + len("second!")); len(env) != want {
		t.Fatalf("envelope is %d bytes, want %d: two entries, none for the stateless object", len(env), want)
	}

	_, fb2 := newRig(t)
	dst := newBlobs(t, fb2, nil, src.GetPort())
	stale, err := dst.Table().Create()
	if err != nil {
		t.Fatal(err)
	}
	dst.objs[stale.Object+100] = []byte("stale")
	if err := dst.RestoreEnvelope(env); err != nil {
		t.Fatal(err)
	}
	if string(dst.note) != "treasury" || len(dst.objs) != 2 ||
		string(dst.objs[caps[0].Object]) != "first" || string(dst.objs[caps[1].Object]) != "second!" {
		t.Fatalf("restored note %q and objects %q", dst.note, dst.objs)
	}
	for _, c := range caps {
		if _, err := dst.Table().Validate(c); err != nil {
			t.Fatalf("capability for object %d after restore: %v", c.Object, err)
		}
	}

	// The formats the envelope replaced, and a torn one, are refused.
	for name, bad := range map[string][]byte{
		"table snapshot": src.Table().Snapshot(),
		"torn entry":     env[:len(env)-1],
		"torn header":    env[:6],
	} {
		if err := dst.RestoreEnvelope(bad); err == nil {
			t.Errorf("%s restored without an error", name)
		}
	}
}

// FuzzRestoreCheckpoint feeds arbitrary bytes to a fresh durable
// kernel's checkpoint path, the one ReplicaApply takes for a base or a
// checkpoint arriving in a ship frame: it returns an error or restores
// state it can write back out, and never panics.
func FuzzRestoreCheckpoint(f *testing.F) {
	_, fb := newRig(f)
	seed := newBlobs(f, fb, nil, 0)
	for i := 0; i < 2; i++ {
		c, err := seed.Table().Create()
		if err != nil {
			f.Fatal(err)
		}
		seed.objs[c.Object] = []byte{byte(i), 1, 2}
	}
	seed.note = []byte{9, 9}
	env, err := seed.Envelope()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env)
	f.Add(env[:len(env)-2])
	f.Add(seed.Table().Snapshot())
	f.Add(binary.BigEndian.AppendUint32(nil, ckMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		disk, err := vdisk.New(64, 256)
		if err != nil {
			t.Fatal(err)
		}
		log, err := wal.Open(disk, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		k := newBlobs(t, fb, log, seed.GetPort())
		defer k.Close()
		if _, err := k.ReplicaApply(wal.Record{Seq: 1, Checkpoint: true, Data: data}); err != nil {
			return
		}
		if _, err := k.Envelope(); err != nil {
			t.Fatalf("restored a checkpoint it cannot write back: %v", err)
		}
	})
}
