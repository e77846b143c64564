package repl

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/rpc"
	"amoeba/internal/svc"
	"amoeba/internal/wal"
)

// OpMigrate carries a single-object migration stream: the object's
// secret and serialized state, framed by the same codec as the
// replication stream (big objects fragment across frames, duplicates
// from RPC retries are skipped, reassembly is exactly-once). The
// channel lives on its OWN private port per destination kernel — a
// "take this object" operation on the public service port would be a
// capability-less write path into the service.
const OpMigrate uint16 = 0x0702

// migPayload is the reassembled migration record:
// obj(4) ∥ secret(8) ∥ service state.
const migPayloadHdr = 12

// MigrateReceiver is the destination half of a live migration: an RPC
// server on a fresh private port that installs shipped objects into a
// running kernel via InstallMigrated — durable (and shipped to the
// destination shard's standbys) before the acknowledgement that lets
// the source seal its migrate-out.
type MigrateReceiver struct {
	srv *rpc.Server
	k   *svc.Kernel

	mu sync.Mutex
	st stream
}

// NewMigrateReceiver builds the receiver feeding kernel k. Call Start
// to begin listening; Port is what the source ships to.
func NewMigrateReceiver(fb *fbox.FBox, src crypto.Source, k *svc.Kernel) *MigrateReceiver {
	m := &MigrateReceiver{k: k}
	m.srv = rpc.NewServer(fb, src)
	// Inline: migrations are serialized by m.mu and rare; the worker
	// pool handoff would buy nothing.
	m.srv.HandleInline(OpMigrate, m.handle)
	return m
}

// Port returns the receiver's put-port (the migration destination).
func (m *MigrateReceiver) Port() cap.Port { return m.srv.PutPort() }

// Start begins receiving (advertises the private port for LOCATE).
func (m *MigrateReceiver) Start() error { return m.srv.Start() }

// Close stops the receiver.
func (m *MigrateReceiver) Close() error { return m.srv.Close() }

func (m *MigrateReceiver) handle(_ context.Context, _ rpc.Meta, req rpc.Request) rpc.Reply {
	items, rebase, term, err := Decode(req.Data)
	if err != nil {
		return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	gap := false
	for _, it := range items {
		v, rec, err := m.st.offer(it, rebase, term)
		if err != nil {
			m.st.reset()
			return rpc.ErrReply(rpc.StatusBadRequest, err.Error())
		}
		switch v {
		case vSkip, vWait:
		case vGap:
			gap = true
		case vApply:
			if len(rec.Data) < migPayloadHdr {
				m.st.reset()
				return rpc.ErrReply(rpc.StatusBadRequest, "repl: short migration payload")
			}
			obj := binary.BigEndian.Uint32(rec.Data[0:])
			secret := binary.BigEndian.Uint64(rec.Data[4:])
			if err := m.k.InstallMigrated(obj, secret, rec.Data[migPayloadHdr:]); err != nil {
				m.st.reset()
				return rpc.ErrReplyFromErr(err)
			}
			m.st.applied(rec, rebase, term)
		}
		if gap {
			break
		}
	}
	if gap {
		return conflict(m.st.pos())
	}
	return rpc.OkReply(ackData(m.st.ack()))
}

// ShipObject sends one extracted object to a MigrateReceiver and
// returns once the destination has acknowledged durable custody. seq
// must increase across migrations to one destination (the cluster
// passes its map generation counter) and doubles as the frame's term:
// the sequencing core then treats a redelivered older migration as the
// older base it is.
func ShipObject(ctx context.Context, c *rpc.Client, dest cap.Port, seq uint64, obj uint32, secret uint64, state []byte, opts ...rpc.CallOption) error {
	payload := make([]byte, migPayloadHdr+len(state))
	binary.BigEndian.PutUint32(payload[0:], obj&cap.ObjectMask)
	binary.BigEndian.PutUint64(payload[4:], secret)
	copy(payload[migPayloadHdr:], state)
	// Rebase framing: each migration is its own self-contained base —
	// the receiver applies it without history, exactly once.
	frames := Encode([]wal.Record{{Seq: seq, Checkpoint: true, Data: payload}}, true, seq)
	for _, f := range frames {
		rep, err := c.Trans(ctx, dest, rpc.Request{Op: OpMigrate, Data: f}, opts...)
		if err != nil {
			return fmt.Errorf("repl: shipping object %d: %w", obj, err)
		}
		if rep.Status != rpc.StatusOK {
			return fmt.Errorf("repl: shipping object %d: %s (%s)", obj, rep.Status, rep.Data)
		}
	}
	return nil
}
