package main

import (
	"encoding/hex"
	"flag"
	"testing"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
)

// TestParseRefusesWhatItCannotCarry: a port wider than 48 bits, a
// length wider than 32 or a -machine wider than 32 is an error, not a
// value the wire truncates to its low bits (2^48 would address port 0,
// a length of 2^32+1 read 1, machine 2^32+1 join as machine 1); so is
// the broadcast address as a machine.
func TestParseRefusesWhatItCannotCarry(t *testing.T) {
	port := func(s string) (uint64, error) { p, err := parsePort(s); return uint64(p), err }
	machine := func(s string) (uint64, error) {
		if err := flag.Set("machine", s); err != nil {
			return 0, err
		}
		m, err := amnet.MachineIDOf(uint64(*machine))
		return uint64(m), err
	}
	defer flag.Set("machine", "99")
	length := func(s string) (uint64, error) { return parseUint(s, 32) }
	position := func(s string) (uint64, error) { return parseUint(s, 64) }
	for _, tc := range []struct {
		name  string
		parse func(string) (uint64, error)
		in    string
		want  uint64
		ok    bool
	}{
		{"port", port, "27f343758c74", 0x27f343758c74, true},
		{"port", port, "ffffffffffff", uint64(cap.PortMask), true},
		{"port", port, "1000000000000", 0, false}, // 2^48
		{"port", port, "ffffffffffffffff", 0, false},
		{"port", port, "xyz", 0, false},
		{"length", length, "4294967295", 1<<32 - 1, true},
		{"length", length, "4294967296", 0, false}, // 2^32
		{"length", length, "4294967297", 0, false},
		{"length", length, "-1", 0, false},
		{"position", position, "18446744073709551615", 1<<64 - 1, true},
		{"position", position, "18446744073709551616", 0, false},
		{"machine", machine, "4294967294", 1<<32 - 2, true},
		{"machine", machine, "4294967295", 0, false}, // the broadcast address
		{"machine", machine, "4294967297", 0, false}, // 2^32+1
	} {
		got, err := tc.parse(tc.in)
		if ok := err == nil; ok != tc.ok || got != tc.want {
			t.Errorf("%s %q = %d, %v; want %d, ok %v", tc.name, tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestParseCap(t *testing.T) {
	c := cap.Capability{Server: 0x27f343758c74, Object: 5, Rights: cap.AllRights, Check: 0xabcdef}
	w := c.Encode()
	if got, err := parseCap(hex.EncodeToString(w[:])); err != nil || got != c {
		t.Fatalf("parseCap round trip = %v, %v; want %v", got, err, c)
	}
	for _, in := range []string{"", "zz", "00"} {
		if _, err := parseCap(in); err == nil {
			t.Errorf("parseCap(%q) accepted", in)
		}
	}
}
