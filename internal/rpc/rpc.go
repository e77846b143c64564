// Package rpc implements the Amoeba remote-operation model of §2.1:
// clients perform operations on objects by sending a request message to
// the object's server and blocking until the reply arrives — "a simple
// remote procedure call mechanism" with no connections, virtual
// circuits, or any long-lived communication structure.
//
// The standard message format provides a place for one capability in
// the header (the object operated on), an operation code, and
// parameters; additional capabilities travel in the data field as the
// application sees fit.
//
// Each transaction uses a fresh one-shot reply port: the client picks a
// random get-port G', includes it in the request (the F-box transmits
// P' = F(G') per §2.2), and the server PUTs the reply to P'.
//
// # Context-first API
//
// Every client entry point takes a context.Context first and accepts
// per-call options: Trans(ctx, dest, req, opts...) and
// Call(ctx, c0, op, data, opts...). Cancellation or deadline expiry
// aborts the locate broadcast, the reply wait and any retry backoff,
// returning ctx.Err(). A context deadline additionally rides in the
// request header as a remaining-time budget (Request.Budget), so a
// server handler that issues nested RPC — the flat file server calling
// the block server, say — inherits the original caller's deadline.
//
// # Configuration defaults
//
// ClientConfig zero values mean "use the default"; explicit per-call
// options are honoured literally:
//
//	Setting               Zero value means        Express "none"/override
//	ClientConfig.Timeout       1s                 WithTimeout(d) per call
//	ClientConfig.Retries       2                  Retries: NoRetries, or WithRetries(0)
//	ClientConfig.RetryBackoff  0 (no backoff)     —
//	ClientConfig.Source        crypto/rand        any crypto.Source
//	ClientConfig.Sealer        nil (no sealing)   any CapSealer
//
// The Retries zero value historically swallowed an explicit 0; use the
// NoRetries sentinel (client-wide) or WithRetries(0) (per call) for
// single-attempt transactions.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/obs"
	"amoeba/internal/wire"
)

// Status is the outcome of a transaction, carried in every reply.
// StatusOK is deliberately the zero value so a zero Reply is a success.
type Status uint16

const (
	// StatusOK means the operation succeeded.
	StatusOK Status = iota
	// StatusBadCapability means the capability failed validation:
	// forged, tampered, revoked, or for an unknown object.
	StatusBadCapability
	// StatusNoPermission means the capability is genuine but lacks a
	// right the operation demands.
	StatusNoPermission
	// StatusBadRequest means the parameters were malformed.
	StatusBadRequest
	// StatusNoSuchOp means the server has no handler for the opcode.
	StatusNoSuchOp
	// StatusServerError means the operation failed inside the server.
	StatusServerError
	// StatusConflict means the request is out of step with the server's
	// state and retrying it unchanged cannot help; the reply data says
	// where the server stands (the replication channel uses it for
	// sequence gaps).
	StatusConflict
	// StatusOverload means admission control refused the request before
	// it touched the worker pool: either its remaining deadline budget
	// could not survive the current queue wait, or the server is
	// draining. The work was NOT executed — retrying (elsewhere, or
	// after backoff) is always safe. Clients surface it as ErrOverload.
	StatusOverload
	// StatusStale means the sender's authority is out of date: a newer
	// epoch has superseded it (the replication channel uses it to fence
	// a deposed primary's stream). Retrying unchanged cannot help.
	StatusStale
	// StatusWrongShard means this machine does not own the object the
	// capability names: the client routed on a stale shard map. The
	// reply data carries the server's current map generation (8 bytes,
	// big-endian); the client refreshes its map and retries against
	// the right shard. The work was NOT executed.
	StatusWrongShard
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadCapability:
		return "bad capability"
	case StatusNoPermission:
		return "no permission"
	case StatusBadRequest:
		return "bad request"
	case StatusNoSuchOp:
		return "no such operation"
	case StatusServerError:
		return "server error"
	case StatusConflict:
		return "conflict"
	case StatusOverload:
		return "overload"
	case StatusStale:
		return "stale epoch"
	case StatusWrongShard:
		return "wrong shard"
	default:
		return fmt.Sprintf("status(%d)", uint16(s))
	}
}

// Err converts a non-OK status into an error (nil for StatusOK).
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	return &StatusError{Status: s}
}

// ErrOverload is the typed face of StatusOverload: admission control
// shed the request before executing it. Test with errors.Is; the
// match works through the *StatusError the client returns.
var ErrOverload = errors.New("rpc: overloaded (request shed before execution)")

// ErrStaleAuthority is the typed face of StatusStale on the serving
// side: the answering server's AUTHORITY is gone — deposed, sealed, a
// lapsed lease, a wedged log — and no amount of retrying against the
// same machine can help. Fence and admission-gate predicates wrap this
// sentinel (errors.Is) to tell the transport "shed me as StatusStale,
// not StatusOverload", which in turn tells clients to evict the cached
// route and re-LOCATE immediately instead of backing off against a
// machine that will never acknowledge again.
var ErrStaleAuthority = errors.New("rpc: stale authority (superseded by a newer epoch)")

// StatusError wraps a non-OK Status as a Go error.
type StatusError struct {
	Status Status
	// Detail optionally carries the server's message (reply data).
	Detail string
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("rpc: %s: %s", e.Status, e.Detail)
	}
	return "rpc: " + e.Status.String()
}

// Is maps overload statuses onto ErrOverload (and stale ones onto
// ErrStaleAuthority) so callers can write errors.Is(err, rpc.ErrOverload)
// without fishing out the status.
func (e *StatusError) Is(target error) bool {
	switch target {
	case ErrOverload:
		return e.Status == StatusOverload
	case ErrStaleAuthority:
		return e.Status == StatusStale
	}
	return false
}

// IsStatus reports whether err is a StatusError with the given status.
func IsStatus(err error, s Status) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == s
}

// StatusFromErr maps the capability-layer errors onto wire statuses.
// Servers use it so every handler reports uniformly.
func StatusFromErr(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, cap.ErrPermission):
		return StatusNoPermission
	case errors.Is(err, cap.ErrInvalidCapability), errors.Is(err, cap.ErrNoSuchObject):
		return StatusBadCapability
	default:
		return StatusServerError
	}
}

// Request is a client's transaction request.
type Request struct {
	// Cap names (and authorizes the operation on) the object.
	Cap cap.Capability
	// Op is the operation code; its meaning is private to the server.
	Op uint16
	// ID is the client-minted request identifier riding the wire
	// header so one logical request can be correlated across machines
	// (access logs, metrics, nested calls). The transport mints one
	// when it is zero — and reuses the originating request's ID for
	// nested RPC issued from inside a handler — so application code
	// never sets it.
	ID uint64
	// Budget is the time remaining until the caller's deadline, set by
	// the transport from the call's context (0 = no deadline). It is
	// carried on the wire with millisecond resolution so a handler that
	// performs nested RPC can bound the whole call tree by the original
	// caller's deadline. Application code never sets it.
	Budget time.Duration
	// Data carries the parameters.
	Data []byte
}

// Reply is a server's transaction reply.
type Reply struct {
	// Status reports the outcome.
	Status Status
	// Cap optionally carries a capability (e.g. for a created object).
	Cap cap.Capability
	// Data carries the results; for non-OK statuses it may carry a
	// human-readable detail string.
	Data []byte
	// Buf, when set by a server handler (OkReplyBuf), is the pooled
	// buffer backing Data; the transport releases it after encoding the
	// reply onto the wire, so handlers can serve results out of pooled
	// scratch instead of fresh allocations. Never set on the client
	// side: replies returned from Trans/Call own their Data outright.
	Buf *wire.Buf
}

// ErrReply builds an error reply with a detail message.
func ErrReply(s Status, detail string) Reply {
	return Reply{Status: s, Data: []byte(detail)}
}

// ErrReplyFromErr builds an error reply from a Go error.
func ErrReplyFromErr(err error) Reply {
	return Reply{Status: StatusFromErr(err), Data: []byte(err.Error())}
}

// OkReply builds a success reply carrying data.
func OkReply(data []byte) Reply { return Reply{Status: StatusOK, Data: data} }

// NewReplyBuf returns a pooled buffer sized for a handler result of
// `capacity` bytes, with headroom reserved for the reply header and
// the frame headers below it — so a reply built here ships on the
// wire from this very backing array, never copied again. Pair with
// OkReplyBuf.
func NewReplyBuf(capacity int) *wire.Buf {
	return wire.Get(wire.DefaultHeadroom+wireHeader, capacity)
}

// OkReplyBuf builds a success reply whose data lives in a pooled
// buffer (ideally from NewReplyBuf) that the transport consumes when
// the reply is framed — the zero-copy path for handlers producing
// bulk results (the block server reads disk blocks straight into one).
func OkReplyBuf(b *wire.Buf) Reply {
	return Reply{Status: StatusOK, Data: b.Bytes(), Buf: b}
}

// releaseBuf returns a handler reply's pooled scratch, if any.
func (r Reply) releaseBuf() {
	if r.Buf != nil {
		r.Buf.Release()
	}
}

// CapReply builds a success reply carrying a capability.
func CapReply(c cap.Capability) Reply { return Reply{Status: StatusOK, Cap: c} }

// WrongShardReply builds a StatusWrongShard reply stamped with the
// server's current shard-map generation. Only the misroute path pays
// the 8-byte allocation.
func WrongShardReply(gen uint64) Reply {
	data := make([]byte, 8)
	binary.BigEndian.PutUint64(data, gen)
	return Reply{Status: StatusWrongShard, Data: data}
}

// WrongShardGen extracts the map generation from a StatusWrongShard
// reply's data (0 if the payload is malformed — older, still valid).
func WrongShardGen(data []byte) uint64 {
	if len(data) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(data)
}

// Standard opcodes offered by every server that calls
// Server.ServeTable: capability maintenance is uniform across services.
const (
	// OpRestrict asks the server to fabricate a capability with fewer
	// rights: data is a one-byte mask; the new capability returns in
	// Reply.Cap (§2.3: "send the capability back to the server along
	// with a bit mask").
	OpRestrict uint16 = 0xfff0
	// OpRevoke asks the server to replace the object's random number,
	// invalidating all outstanding capabilities; the fresh owner
	// capability returns in Reply.Cap.
	OpRevoke uint16 = 0xfff1
	// OpValidate asks the server to validate the capability and report
	// the rights it conveys (one byte). Tooling uses it.
	OpValidate uint16 = 0xfff2
	// OpEcho returns the request data unchanged (diagnostics, benches).
	OpEcho uint16 = 0xfffe
	// OpBatch packs several sub-requests into one transaction frame:
	// data is count(2) followed by count length-prefixed encoded
	// requests; the reply data is count(2) followed by count
	// length-prefixed encoded replies in the same order. The server
	// implements it natively (fanning the sub-requests out across its
	// worker pool); Handle refuses to register it. Batches may not
	// nest. See Client.Batch.
	OpBatch uint16 = 0xfff3
)

func init() {
	// The standard opcodes name themselves in the shared obs table, the
	// one source metrics labels and access-log dumps both read.
	obs.RegisterOps(map[uint16]string{
		OpRestrict: "restrict",
		OpRevoke:   "revoke",
		OpValidate: "validate",
		OpBatch:    "batch",
		OpEcho:     "echo",
	})
}

// StatusName renders a wire status value for metric and log labels —
// the func(uint16) obs wants, so obs itself stays below rpc.
func StatusName(st uint16) string { return Status(st).String() }

// MaxBatchItems bounds the sub-requests in one batch (the wire count
// is 16-bit; the practical bound is the network MTU anyway).
const MaxBatchItems = 1 << 12

// MaxBatchBytes is the largest total payload a batch should carry:
// the network MTU less headroom for the outer request header and
// per-item framing. Clients splitting bulk transfers into batches
// (the flat file server's block fetches) size against it.
const MaxBatchBytes = amnet.MTU - 1024

// EncodeBatchItems packs length-prefixed items into a batch payload:
// count(2) ∥ count × (len(4) ∥ item).
func EncodeBatchItems(items [][]byte) []byte {
	size := 2
	for _, it := range items {
		size += 4 + len(it)
	}
	buf := make([]byte, 0, size)
	var cnt [2]byte
	binary.BigEndian.PutUint16(cnt[:], uint16(len(items)))
	buf = append(buf, cnt[:]...)
	for _, it := range items {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(it)))
		buf = append(buf, l[:]...)
		buf = append(buf, it...)
	}
	return buf
}

// appendBatchCount writes a batch payload's leading item count into
// the pooled buffer — the zero-alloc twin of EncodeBatchItems' count
// field; keep the layouts in lockstep.
func appendBatchCount(b *wire.Buf, n int) {
	binary.BigEndian.PutUint16(b.Extend(2), uint16(n))
}

// appendBatchItemHeader writes one item's length prefix; the caller
// appends exactly n bytes of encoded item after it (the layout
// EncodeBatchItems documents and DecodeBatchItems expects).
func appendBatchItemHeader(b *wire.Buf, n int) {
	binary.BigEndian.PutUint32(b.Extend(4), uint32(n))
}

// DecodeBatchItems unpacks a batch payload into its items.
func DecodeBatchItems(buf []byte) ([][]byte, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("%w: batch of %d bytes", ErrBadMessage, len(buf))
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	items := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(buf) < 4 {
			return nil, fmt.Errorf("%w: batch item %d truncated", ErrBadMessage, i)
		}
		l := binary.BigEndian.Uint32(buf)
		buf = buf[4:]
		if uint32(len(buf)) < l {
			return nil, fmt.Errorf("%w: batch item %d wants %d bytes, have %d", ErrBadMessage, i, l, len(buf))
		}
		items = append(items, buf[:l])
		buf = buf[l:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrBadMessage, len(buf))
	}
	return items, nil
}

// Wire formats. Request: op(2) cap(16) budget(4, ms) rid(8) dlen(4)
// data. Reply: status(2) cap(16) dlen(4) data.
const (
	reqHeader  = 2 + cap.Size + 4 + 8 + 4
	wireHeader = 2 + cap.Size + 4 // reply header
)

// ErrBadMessage is returned for undecodable request/reply payloads.
var ErrBadMessage = errors.New("rpc: malformed message")

// budgetToWire converts a deadline budget to wire milliseconds,
// rounding up so a small positive budget never becomes "no deadline".
func budgetToWire(d time.Duration) uint32 {
	if d <= 0 {
		return 0
	}
	ms := (d + time.Millisecond - 1) / time.Millisecond
	if ms > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ms)
}

// appendRequest encodes req into the pooled buffer. The request data
// is req.Data followed by the extra parts, so callers can assemble a
// payload from scattered pieces (header array + bulk data) without an
// intermediate allocation.
func appendRequest(b *wire.Buf, req Request, parts ...[]byte) {
	dataLen := len(req.Data)
	for _, p := range parts {
		dataLen += len(p)
	}
	appendRequestHeader(b, req.Op, req.Cap, req.Budget, req.ID, dataLen)
	b.AppendBytes(req.Data)
	for _, p := range parts {
		b.AppendBytes(p)
	}
}

// appendRequestHeader writes just the fixed request header; the caller
// appends exactly dataLen bytes of request data after it.
func appendRequestHeader(b *wire.Buf, op uint16, c cap.Capability, budget time.Duration, id uint64, dataLen int) {
	hdr := b.Extend(reqHeader)
	binary.BigEndian.PutUint16(hdr[0:2], op)
	w := c.Encode()
	copy(hdr[2:2+cap.Size], w[:])
	binary.BigEndian.PutUint32(hdr[2+cap.Size:], budgetToWire(budget))
	binary.BigEndian.PutUint64(hdr[2+cap.Size+4:], id)
	binary.BigEndian.PutUint32(hdr[2+cap.Size+4+8:], uint32(dataLen))
}

// DecodeRequest parses a request payload.
func DecodeRequest(buf []byte) (Request, error) {
	if len(buf) < reqHeader {
		return Request{}, fmt.Errorf("%w: %d bytes", ErrBadMessage, len(buf))
	}
	op := binary.BigEndian.Uint16(buf[0:2])
	c, err := cap.Decode(buf[2 : 2+cap.Size])
	if err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	budget := time.Duration(binary.BigEndian.Uint32(buf[2+cap.Size:2+cap.Size+4])) * time.Millisecond
	id := binary.BigEndian.Uint64(buf[2+cap.Size+4 : 2+cap.Size+4+8])
	n := binary.BigEndian.Uint32(buf[2+cap.Size+4+8 : reqHeader])
	if uint32(len(buf)-reqHeader) != n {
		return Request{}, fmt.Errorf("%w: data length %d, have %d", ErrBadMessage, n, len(buf)-reqHeader)
	}
	return Request{Cap: c, Op: op, Budget: budget, ID: id, Data: buf[reqHeader:]}, nil
}

// appendReply encodes rep into the pooled buffer.
func appendReply(b *wire.Buf, rep Reply) {
	putReplyHeader(b.Extend(wireHeader), rep)
	b.AppendBytes(rep.Data)
}

// putReplyHeader lays the fixed reply header into hdr (wireHeader
// bytes): status(2) cap(16) dlen(4).
func putReplyHeader(hdr []byte, rep Reply) {
	binary.BigEndian.PutUint16(hdr[0:2], uint16(rep.Status))
	w := rep.Cap.Encode()
	copy(hdr[2:2+cap.Size], w[:])
	binary.BigEndian.PutUint32(hdr[2+cap.Size:], uint32(len(rep.Data)))
}

// DecodeReply parses a reply payload.
func DecodeReply(buf []byte) (Reply, error) {
	if len(buf) < wireHeader {
		return Reply{}, fmt.Errorf("%w: %d bytes", ErrBadMessage, len(buf))
	}
	status := Status(binary.BigEndian.Uint16(buf[0:2]))
	c, err := cap.Decode(buf[2 : 2+cap.Size])
	if err != nil {
		return Reply{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	n := binary.BigEndian.Uint32(buf[2+cap.Size : wireHeader])
	if uint32(len(buf)-wireHeader) != n {
		return Reply{}, fmt.Errorf("%w: data length %d, have %d", ErrBadMessage, n, len(buf)-wireHeader)
	}
	return Reply{Status: status, Cap: c, Data: buf[wireHeader:]}, nil
}
