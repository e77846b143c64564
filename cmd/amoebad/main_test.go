package main

import (
	"bytes"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"amoeba/internal/amnet"
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

// TestServicesSubsets boots the daemon over several -services lists:
// each hosted service announces itself on stdout, /metrics carries the
// request counters and the queue gauges of exactly the hosted services,
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
			var metrics string
			for deadline := time.Now().Add(10 * time.Second); metrics == ""; time.Sleep(10 * time.Millisecond) {
				if resp, err := http.Get("http://" + debug + "/metrics"); err == nil {
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					metrics = string(body)
				} else if time.Now().After(deadline) {
					t.Fatalf("/metrics never came up: %v", err)
				}
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
