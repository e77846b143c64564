// Package amoeba is a Go reproduction of the Amoeba sparse-capability
// system from Tanenbaum, Mullender & van Renesse, "Using Sparse
// Capabilities in a Distributed Operating System" (ICDCS 1986).
//
// Objects live on servers and are named and protected by 128-bit
// capabilities held directly in user space: 48-bit server put-port,
// 24-bit object number, 8-bit rights field, 48-bit cryptographic check
// field (Fig. 2 of the paper). Server ports are protected by the F-box
// one-way transformation (Fig. 1); rights are protected by one of the
// four algorithms of §2.3; §2.4's key-matrix scheme protects
// capabilities in flight without F-boxes.
//
// The package is a facade over the internal packages. Most programs
// start with a Cluster — a self-contained simulated Amoeba network
// with whichever of the paper's §3 services they need:
//
//	cl, err := amoeba.NewCluster(amoeba.ClusterConfig{})
//	if err != nil { ... }
//	defer cl.Close()
//	file, err := cl.Files().Create()
//	readOnly, err := cl.Files().Restrict(file, amoeba.RightRead)
//
// Real multi-process deployments use cmd/amoebad over TCP instead of a
// simulated network; the protocol and capabilities are identical.
package amoeba

import (
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/rpc"
)

// Core re-exported types. A Capability is a plain 16-byte value: copy
// it, store it in directories, send it to other processes — possession
// (with a valid check field) is authority.
type (
	// Capability is the paper's Fig. 2 token.
	Capability = cap.Capability
	// Rights is the 8-bit rights field.
	Rights = cap.Rights
	// Port is a 48-bit sparse port.
	Port = cap.Port
	// SchemeID selects one of the four §2.3 protection algorithms.
	SchemeID = cap.SchemeID
	// Signer is an F-box digital-signature identity (§2.2).
	Signer = fbox.Signer
	// MachineID identifies a machine on the cluster network — the
	// handle Kill, Restart and Drain take (see Cluster.Machines and
	// Cluster.ShardMachines).
	MachineID = amnet.MachineID
)

// Re-exported rights bits.
const (
	RightRead    = cap.RightRead
	RightWrite   = cap.RightWrite
	RightDestroy = cap.RightDestroy
	RightCreate  = cap.RightCreate
	RightRevoke  = cap.RightRevoke
	AllRights    = cap.AllRights
)

// Re-exported scheme identifiers, in the order §2.3 presents them.
const (
	// SchemeCompare: check field equals the object's random number;
	// no rights distinction.
	SchemeCompare = cap.SchemeCompare
	// SchemeEncrypted: RIGHTS ∥ KNOWN-CONSTANT encrypted per object.
	SchemeEncrypted = cap.SchemeEncrypted
	// SchemeOneWay: CHECK = F(random XOR rights), plaintext rights.
	SchemeOneWay = cap.SchemeOneWay
	// SchemeCommutative: client-side rights deletion via commutative
	// one-way functions.
	SchemeCommutative = cap.SchemeCommutative
)

// Nil is the zero capability.
var Nil = cap.Nil

// Decode parses a 16-byte wire capability.
func Decode(buf []byte) (Capability, error) { return cap.Decode(buf) }

// NewScheme constructs one of the four rights-protection algorithms
// with default primitives.
func NewScheme(id SchemeID) (cap.Scheme, error) { return cap.NewScheme(id) }

// NewSigner draws a fresh digital-signature identity.
func NewSigner() Signer { return fbox.NewSigner(nil, nil) }

// Status values surfaced to clients of the typed APIs (wrapped in
// *rpc.StatusError).
const (
	StatusOK            = rpc.StatusOK
	StatusBadCapability = rpc.StatusBadCapability
	StatusNoPermission  = rpc.StatusNoPermission
	StatusBadRequest    = rpc.StatusBadRequest
	StatusNoSuchOp      = rpc.StatusNoSuchOp
	StatusServerError   = rpc.StatusServerError
	StatusConflict      = rpc.StatusConflict
	StatusOverload      = rpc.StatusOverload
)

// ErrOverload matches (via errors.Is) the error a call returns when
// the server shed it at admission: the pool was saturated and the
// request's deadline budget would not have survived the queue. The
// client has already applied its budget-aware backoff/retry policy by
// the time this surfaces — seeing it means the call truly did not run.
var ErrOverload = rpc.ErrOverload

// IsStatus reports whether err is an RPC status error with the given
// status (e.g. IsStatus(err, StatusNoPermission)).
func IsStatus(err error, s rpc.Status) bool { return rpc.IsStatus(err, s) }

// CallOption tunes a single RPC transaction; every typed-client and
// rpc.Client method accepts them after the context. Re-exported here
// so programs outside this module (which cannot import internal/rpc)
// can use per-call options through the facade.
type CallOption = rpc.CallOption

// WithTimeout bounds each attempt's wait for a reply on one call.
func WithTimeout(d time.Duration) CallOption { return rpc.WithTimeout(d) }

// WithRetries sets the retry count for one call; WithRetries(0) means
// exactly one attempt.
func WithRetries(n int) CallOption { return rpc.WithRetries(n) }

// WithSigner signs one transaction with an F-box signature identity.
func WithSigner(s Signer) CallOption { return rpc.WithSigner(s) }

// Request and Reply are the raw transaction types for programs using
// Cluster.RPC directly (the typed clients cover the common cases).
type (
	// Request is a raw RPC request.
	Request = rpc.Request
	// Reply is a raw RPC reply.
	Reply = rpc.Reply
)

// OpEcho is the universal diagnostic opcode every service answers.
const OpEcho = rpc.OpEcho

// Batch transaction surface: Cluster.RPC().Batch(ctx, dest, reqs)
// packs several requests into one OpBatch frame; the server runs them
// in order on the one worker that admitted the frame, and the replies
// come back in order. The constants bound a single frame — split
// larger work across frames.
const (
	// OpBatch is the reserved batch-transaction opcode.
	OpBatch = rpc.OpBatch
	// MaxBatchItems bounds the sub-requests in one batch frame.
	MaxBatchItems = rpc.MaxBatchItems
	// MaxBatchBytes bounds one batch frame's packed payload.
	MaxBatchBytes = rpc.MaxBatchBytes
)

// NewSeededSource returns a deterministic randomness source, for
// reproducible clusters in tests and experiments.
func NewSeededSource(seed uint64) crypto.Source { return crypto.NewSeededSource(seed) }
