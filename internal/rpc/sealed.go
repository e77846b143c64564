package rpc

import (
	"amoeba/internal/amnet"
	"amoeba/internal/cap"
)

// CapSealer encrypts capabilities in flight, keyed by the pair of
// machines involved — the §2.4 key matrix. keymatrix.Guard implements
// it. When a sealer is installed on a Client and a Server, the
// capability in every request header travels as M[src][dst]-encrypted
// bytes, and capabilities in replies travel encrypted the other way;
// the data fields stay in the clear ("the data need not be
// encrypted"). A wiretapper sees only ciphertext, and a replay from a
// different machine decrypts to garbage that fails the object-table
// check.
//
// Sealing composes with, and is independent of, the F-box: the paper
// offers the two mechanisms as alternatives, and this library lets
// either or both run.
//
// Scope: only the header capability slot is sealed. Capabilities that
// applications embed in the *data* field (directory Enter, bank
// Transfer destinations, MAKE PROCESS segment lists) are opaque bytes
// to this layer; applications needing them protected in flight seal
// them explicitly with the same Guard before embedding, or rely on the
// F-box. The paper's header format has the same property: the one
// architectural capability slot is what the system knows about.
type CapSealer interface {
	// Seal encrypts c for transmission to machine dst.
	Seal(c cap.Capability, dst amnet.MachineID) ([cap.Size]byte, error)
	// Open decrypts a received capability from machine src.
	Open(enc [cap.Size]byte, src amnet.MachineID) (cap.Capability, error)
}

// sealRequestCap returns req with its capability sealed for dst.
// The nil capability is never sealed: operations that name no object
// (OpEcho, block-server OpStat, create calls) keep a zero slot, and
// the receiver skips opening it. This leaks one bit (object vs no
// object), not any capability material.
func sealRequestCap(s CapSealer, req Request, dst amnet.MachineID) (Request, error) {
	if s == nil || req.Cap.IsNil() {
		return req, nil
	}
	enc, err := s.Seal(req.Cap, dst)
	if err != nil {
		return Request{}, err
	}
	c, err := cap.Decode(enc[:])
	if err != nil {
		return Request{}, err
	}
	req.Cap = c
	return req, nil
}

// openRequestCap inverts sealRequestCap on the server.
func openRequestCap(s CapSealer, req Request, src amnet.MachineID) (Request, error) {
	if s == nil || req.Cap.IsNil() {
		return req, nil
	}
	plain, err := s.Open(req.Cap.Encode(), src)
	if err != nil {
		return Request{}, err
	}
	req.Cap = plain
	return req, nil
}

// sealReplyCap seals the capability a reply carries toward dst. A seal
// that fails turns the reply into a server error (releasing its
// pooled Buf); one that succeeds keeps the Buf riding along.
func sealReplyCap(s CapSealer, rep Reply, dst amnet.MachineID) Reply {
	if s == nil || rep.Cap.IsNil() {
		return rep
	}
	enc, err := s.Seal(rep.Cap, dst)
	if err == nil {
		rep.Cap, err = cap.Decode(enc[:])
	}
	if err != nil {
		rep.releaseBuf()
		return ErrReply(StatusServerError, "sealing reply capability: "+err.Error())
	}
	return rep
}

// openReplyCap inverts sealReplyCap on the client.
func openReplyCap(s CapSealer, rep Reply, src amnet.MachineID) (Reply, error) {
	if s == nil || rep.Cap.IsNil() {
		return rep, nil
	}
	plain, err := s.Open(rep.Cap.Encode(), src)
	if err != nil {
		return Reply{}, err
	}
	rep.Cap = plain
	return rep, nil
}
