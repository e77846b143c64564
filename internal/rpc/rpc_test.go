package rpc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"amoeba/internal/cap"
	"amoeba/internal/wire"
)

// wireBytes runs one of the transport's own encoders (appendRequest,
// appendReply) into a pooled buffer and returns a copy the test owns.
func wireBytes(encode func(*wire.Buf)) []byte {
	b := wire.Get(0, 64)
	defer b.Release()
	encode(b)
	return append([]byte(nil), b.Bytes()...)
}

func requestBytes(req Request) []byte {
	return wireBytes(func(b *wire.Buf) { appendRequest(b, req) })
}

func replyBytes(rep Reply) []byte {
	return wireBytes(func(b *wire.Buf) { appendReply(b, rep) })
}

func TestRequestCodecRoundTrip(t *testing.T) {
	prop := func(op uint16, server uint64, object uint32, rights uint8, check uint64, data []byte) bool {
		req := Request{
			Cap: cap.Capability{
				Server: cap.Port(server) & cap.PortMask,
				Object: object & cap.ObjectMask,
				Rights: cap.Rights(rights),
				Check:  check & cap.CheckMask,
			},
			Op:   op,
			Data: data,
		}
		dec, err := DecodeRequest(requestBytes(req))
		return err == nil && dec.Op == req.Op && dec.Cap == req.Cap && bytes.Equal(dec.Data, req.Data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplyCodecRoundTrip(t *testing.T) {
	prop := func(status uint16, check uint64, data []byte) bool {
		rep := Reply{
			Status: Status(status),
			Cap:    cap.Capability{Check: check & cap.CheckMask},
			Data:   data,
		}
		dec, err := DecodeReply(replyBytes(rep))
		return err == nil && dec.Status == rep.Status && dec.Cap == rep.Cap && bytes.Equal(dec.Data, rep.Data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 2, 3}); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short request: %v", err)
	}
	if _, err := DecodeReply(nil); !errors.Is(err, ErrBadMessage) {
		t.Errorf("nil reply: %v", err)
	}
	// Length field inconsistent with actual data.
	good := requestBytes(Request{Data: []byte("abc")})
	if _, err := DecodeRequest(good[:len(good)-1]); !errors.Is(err, ErrBadMessage) {
		t.Errorf("truncated request: %v", err)
	}
	grown := append(replyBytes(Reply{}), 0xff)
	if _, err := DecodeReply(grown); !errors.Is(err, ErrBadMessage) {
		t.Errorf("padded reply: %v", err)
	}
}

func TestStatusStrings(t *testing.T) {
	tests := []struct {
		s    Status
		want string
	}{
		{StatusOK, "ok"},
		{StatusBadCapability, "bad capability"},
		{StatusNoPermission, "no permission"},
		{StatusBadRequest, "bad request"},
		{StatusNoSuchOp, "no such operation"},
		{StatusServerError, "server error"},
		{Status(42), "status(42)"},
	}
	for _, tc := range tests {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%d: %q want %q", tc.s, got, tc.want)
		}
	}
}

func TestStatusErr(t *testing.T) {
	if err := StatusOK.Err(); err != nil {
		t.Fatalf("StatusOK.Err() = %v", err)
	}
	err := StatusNoPermission.Err()
	if err == nil || !IsStatus(err, StatusNoPermission) {
		t.Fatalf("Err/IsStatus mismatch: %v", err)
	}
	if IsStatus(err, StatusBadCapability) {
		t.Fatal("IsStatus matched the wrong status")
	}
	if IsStatus(errors.New("other"), StatusOK) {
		t.Fatal("IsStatus matched a non-status error")
	}
}

func TestStatusErrorDetail(t *testing.T) {
	e := &StatusError{Status: StatusServerError, Detail: "disk on fire"}
	if e.Error() != "rpc: server error: disk on fire" {
		t.Errorf("Error() = %q", e.Error())
	}
	bare := &StatusError{Status: StatusBadRequest}
	if bare.Error() != "rpc: bad request" {
		t.Errorf("Error() = %q", bare.Error())
	}
}

func TestStatusFromErr(t *testing.T) {
	tests := []struct {
		err  error
		want Status
	}{
		{nil, StatusOK},
		{cap.ErrPermission, StatusNoPermission},
		{cap.ErrInvalidCapability, StatusBadCapability},
		{cap.ErrNoSuchObject, StatusBadCapability},
		{errors.New("anything else"), StatusServerError},
	}
	for _, tc := range tests {
		if got := StatusFromErr(tc.err); got != tc.want {
			t.Errorf("StatusFromErr(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestReplyHelpers(t *testing.T) {
	if r := OkReply([]byte("x")); r.Status != StatusOK || string(r.Data) != "x" {
		t.Errorf("OkReply = %+v", r)
	}
	c := cap.Capability{Object: 5}
	if r := CapReply(c); r.Status != StatusOK || r.Cap != c {
		t.Errorf("CapReply = %+v", r)
	}
	if r := ErrReply(StatusBadRequest, "why"); r.Status != StatusBadRequest || string(r.Data) != "why" {
		t.Errorf("ErrReply = %+v", r)
	}
	if r := ErrReplyFromErr(cap.ErrPermission); r.Status != StatusNoPermission {
		t.Errorf("ErrReplyFromErr = %+v", r)
	}
}
