package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
)

func TestParseRegistry(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    map[amnet.MachineID]string
		wantErr bool
	}{
		{
			name: "single entry",
			in:   "1=127.0.0.1:7001",
			want: map[amnet.MachineID]string{1: "127.0.0.1:7001"},
		},
		{
			name: "multiple with spaces",
			in:   "1=a:1, 2=b:2 ,3=c:3",
			want: map[amnet.MachineID]string{1: "a:1", 2: "b:2", 3: "c:3"},
		},
		{
			name: "trailing comma",
			in:   "5=host:9,",
			want: map[amnet.MachineID]string{5: "host:9"},
		},
		{name: "missing equals", in: "1:badform", wantErr: true},
		{name: "bad id", in: "x=host:1", wantErr: true},
		{name: "id wider than 32 bits", in: "4294967297=host:1", wantErr: true},
		{name: "broadcast id", in: "4294967295=host:1", wantErr: true},
		{name: "empty", in: "", wantErr: true},
		{name: "only commas", in: ",,,", wantErr: true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := amnet.ParseRegistry(tc.in)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if err != nil {
				return
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v want %v", got, tc.want)
			}
			for id, addr := range tc.want {
				if got[id] != addr {
					t.Errorf("id %d: got %q want %q", id, got[id], addr)
				}
			}
		})
	}
}

// TestRunRefusesMachineItCannotCarry: a -machine wider than 32 bits
// would join as its low 32 bits, another machine (2^32+1 as machine 1),
// and the broadcast address is every machine; both stop the daemon
// before it listens.
func TestRunRefusesMachineItCannotCarry(t *testing.T) {
	t.Cleanup(func() { flag.Set("machine", "1") })
	for _, id := range []string{"4294967297", "4294967295"} {
		if err := flag.Set("machine", id); err != nil {
			t.Fatal(err)
		}
		if err := run(io.Discard, nil); err == nil || !strings.Contains(err.Error(), "bad machine id") {
			t.Errorf("-machine %s: run = %v, want a bad machine id", id, err)
		}
	}
}

// TestServicesSubsets boots the daemon over several -services lists:
// each hosted service announces itself on stdout, /metrics carries the
// request counters and the queue gauges of exactly the hosted services
// and the transport's counters, /debug/vars and /debug/requests answer,
// and a list that cannot start says why and leaves nothing behind.
func TestServicesSubsets(t *testing.T) {
	all := []string{"mem", "block", "file", "dir", "mv", "bank"}
	for _, tc := range []struct {
		services string
		hosted   []string
		wantErr  string
	}{
		{services: "dir", hosted: []string{"dir"}},
		{services: "block,file", hosted: []string{"block", "file"}},
		{services: " mem, mv ,bank,", hosted: []string{"mem", "mv", "bank"}},
		{services: strings.Join(all, ","), hosted: all},
		{services: "dir,file,block", wantErr: `list "block" before it`},
		{services: "dir,nfs", wantErr: `unknown service "nfs"`},
	} {
		t.Run(tc.services, func(t *testing.T) {
			freeAddr := func() string {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				return ln.Addr().String()
			}
			machine, debug := freeAddr(), freeAddr()
			for name, value := range map[string]string{
				"registry": "1=" + machine, "services": tc.services, "seed": "7", "debug-addr": debug,
			} {
				if err := flag.Set(name, value); err != nil {
					t.Fatal(err)
				}
			}
			var stdout bytes.Buffer
			stop, done := make(chan os.Signal, 1), make(chan error, 1)
			go func() { done <- run(&stdout, stop) }()
			if tc.wantErr != "" {
				if err := <-done; err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run = %v, want an error containing %q", err, tc.wantErr)
				}
				// The services ahead of the failing one had started: the
				// machine's address is free again only if they and the
				// transport under them were closed on the way out.
				ln, err := net.Listen("tcp", machine)
				if err != nil {
					t.Fatalf("a failed start left the machine's listener open: %v", err)
				}
				ln.Close()
				return
			}
			get := func(path string) (string, error) {
				resp, err := http.Get("http://" + debug + path)
				if err != nil {
					return "", err
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("GET %s: %s", path, resp.Status)
				}
				return string(body), err
			}
			var metrics string
			for deadline := time.Now().Add(10 * time.Second); metrics == ""; time.Sleep(10 * time.Millisecond) {
				var err error
				if metrics, err = get("/metrics"); err != nil && time.Now().After(deadline) {
					t.Fatalf("/metrics never came up: %v", err)
				}
			}
			// The transport's counters, the process expvars and the
			// access-log ring are served beside the service series.
			for _, series := range []string{"frames_out", "write_calls", "frames_in", "read_calls", "lane_dropped", "in_dropped"} {
				if !strings.Contains(metrics, "\namoeba_tcp_"+series+"_total ") {
					t.Errorf("/metrics has no amoeba_tcp_%s_total", series)
				}
			}
			if vars, err := get("/debug/vars"); err != nil || !strings.Contains(vars, `"process"`) {
				t.Errorf("/debug/vars = %.80q, %v; want the process expvars", vars, err)
			}
			if _, err := get("/debug/requests"); err != nil {
				t.Errorf("/debug/requests: %v", err)
			}
			stop <- os.Interrupt
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			var announced []string
			for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
				name, port, ok := strings.Cut(line, "\t")
				if _, err := strconv.ParseUint(port, 16, 48); !ok || err != nil {
					t.Fatalf("stdout line %q is not name<TAB>put-port", line)
				}
				announced = append(announced, name)
			}
			if !slices.Equal(announced, tc.hosted) {
				t.Fatalf("announced %v, want %v", announced, tc.hosted)
			}
			for _, name := range all {
				for _, series := range []string{
					`amoeba_requests_total{service="` + name + `",`,
					`amoeba_queue_depth{service="` + name + `"}`,
					`amoeba_queue_wait_ewma_ns{service="` + name + `"}`,
				} {
					if has, want := strings.Contains(metrics, series), slices.Contains(tc.hosted, name); has != want {
						t.Errorf("/metrics has %s: %v, want %v", series, has, want)
					}
				}
			}
		})
	}
}

// TestStatePathRoundTrip: -state-path writes the block server's
// checkpoint at shutdown and restores it at the next start; a file in
// the bare table-snapshot format it replaced stops the daemon with an
// error instead of starting an empty block server.
func TestStatePathRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "block.state")
	t.Cleanup(func() { flag.Set("state-path", "") })
	daemon := func() (stop chan os.Signal, done chan error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		machine := ln.Addr().String()
		ln.Close()
		for name, value := range map[string]string{
			"registry": "1=" + machine, "services": "block", "seed": "7", "debug-addr": "", "state-path": path,
		} {
			if err := flag.Set(name, value); err != nil {
				t.Fatal(err)
			}
		}
		stop, done = make(chan os.Signal, 1), make(chan error, 1)
		go func() { done <- run(io.Discard, stop) }()
		return stop, done
	}
	for i := 0; i < 2; i++ { // the second start restores what the first wrote
		stop, done := daemon()
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("start %d wrote no checkpoint: %v", i, err)
		}
	}

	scheme, err := cap.NewScheme(cap.SchemeOneWay)
	if err != nil {
		t.Fatal(err)
	}
	old := cap.NewTable(scheme, 1, crypto.NewSeededSource(1)).Snapshot()
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}
	_, done := daemon()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "not a checkpoint envelope") {
		t.Fatalf("run over an old-format state file = %v, want a refusal", err)
	}
}
