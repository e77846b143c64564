// Command amoeba is the cluster client: it joins a TCP cluster as a
// machine and performs operations against services found by LOCATE.
// Capabilities are passed on the command line as 32 hex digits (the
// 16-byte Fig. 2 wire format) and printed the same way, so they can be
// stored in shell variables and handed to other users — they are
// bearer tokens.
//
// Usage:
//
//	amoeba [-machine N -registry ...] <command> [args]
//
// Commands:
//
//	cap <hex>                         decode and pretty-print a capability
//	echo <port-hex> <text>            round-trip text off a server
//	locate <port-hex>                 find which machine serves a port
//	file-create <port-hex>            create a file, print its capability
//	file-write <cap-hex> <pos> <text> write text at pos
//	file-read <cap-hex> <pos> <len>   read bytes
//	restrict <cap-hex> <rights-hex>   fabricate a weaker capability
//	revoke <cap-hex>                  re-key the object
//	validate <cap-hex>                ask the server which rights it conveys
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
	"amoeba/internal/rpc"
	"amoeba/internal/server/flatfs"
)

var (
	machine  = flag.Uint("machine", 99, "this client's machine ID")
	registry = flag.String("registry", "1=127.0.0.1:7001,99=127.0.0.1:0", "cluster map: id=host:port,...")
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// `cap` is offline: no cluster needed.
	if args[0] == "cap" {
		c := parseCap(arg(args, 1, "capability hex"))
		fmt.Printf("server port: %s\n", c.Server)
		fmt.Printf("object:      %d\n", c.Object)
		fmt.Printf("rights:      %s (%#02x)\n", c.Rights, uint8(c.Rights))
		fmt.Printf("check:       %012x\n", c.Check)
		return
	}

	reg, err := amnet.ParseRegistry(*registry)
	if err != nil {
		log.Fatalf("amoeba: %v", err)
	}
	nic, err := amnet.NewTCPNet(amnet.MachineID(*machine), reg)
	if err != nil {
		log.Fatalf("amoeba: %v", err)
	}
	fb := fbox.New(nic, nil)
	defer fb.Close()
	res := locate.New(fb, locate.Config{})
	client := rpc.NewClient(fb, res, rpc.ClientConfig{})
	ctx := context.Background()

	switch args[0] {
	case "locate":
		port := parsePort(arg(args, 1, "port hex"))
		at, err := res.Lookup(ctx, port)
		if err != nil {
			log.Fatalf("amoeba: %v", err)
		}
		fmt.Printf("port %s served by machine %v\n", port, at)
	case "echo":
		port := parsePort(arg(args, 1, "port hex"))
		rep, err := client.Trans(ctx, port, rpc.Request{Op: rpc.OpEcho, Data: []byte(arg(args, 2, "text"))})
		if err != nil {
			log.Fatalf("amoeba: %v", err)
		}
		fmt.Printf("%s: %q\n", rep.Status, rep.Data)
	case "file-create":
		port := parsePort(arg(args, 1, "port hex"))
		f, err := flatfs.NewClient(client, port).Create(ctx)
		if err != nil {
			log.Fatalf("amoeba: %v", err)
		}
		printCap(f)
	case "file-write":
		c := parseCap(arg(args, 1, "capability hex"))
		pos := parseUint(arg(args, 2, "position"))
		if err := flatfs.NewClient(client, c.Server).WriteAt(ctx, c, pos, []byte(arg(args, 3, "text"))); err != nil {
			log.Fatalf("amoeba: %v", err)
		}
		fmt.Println("ok")
	case "file-read":
		c := parseCap(arg(args, 1, "capability hex"))
		pos := parseUint(arg(args, 2, "position"))
		n := parseUint(arg(args, 3, "length"))
		data, err := flatfs.NewClient(client, c.Server).ReadAt(ctx, c, pos, uint32(n))
		if err != nil {
			log.Fatalf("amoeba: %v", err)
		}
		fmt.Printf("%q\n", data)
	case "restrict":
		c := parseCap(arg(args, 1, "capability hex"))
		maskBytes, err := hex.DecodeString(arg(args, 2, "rights mask hex (2 digits)"))
		if err != nil || len(maskBytes) != 1 {
			log.Fatalf("amoeba: rights mask must be 2 hex digits")
		}
		weak, err := client.Restrict(ctx, c, cap.Rights(maskBytes[0]))
		if err != nil {
			log.Fatalf("amoeba: %v", err)
		}
		printCap(weak)
	case "revoke":
		c := parseCap(arg(args, 1, "capability hex"))
		fresh, err := client.Revoke(ctx, c)
		if err != nil {
			log.Fatalf("amoeba: %v", err)
		}
		printCap(fresh)
	case "validate":
		c := parseCap(arg(args, 1, "capability hex"))
		rights, err := client.Validate(ctx, c)
		if err != nil {
			log.Fatalf("amoeba: %v", err)
		}
		fmt.Printf("rights: %s (%#02x)\n", rights, uint8(rights))
	default:
		log.Fatalf("amoeba: unknown command %q", args[0])
	}
}

func arg(args []string, i int, what string) string {
	if len(args) <= i {
		log.Fatalf("amoeba: missing argument: %s", what)
	}
	return args[i]
}

func parseCap(s string) cap.Capability {
	buf, err := hex.DecodeString(s)
	if err != nil {
		log.Fatalf("amoeba: bad capability hex: %v", err)
	}
	c, err := cap.Decode(buf)
	if err != nil {
		log.Fatalf("amoeba: %v", err)
	}
	return c
}

func printCap(c cap.Capability) {
	w := c.Encode()
	fmt.Printf("%s\n", hex.EncodeToString(w[:]))
}

func parsePort(s string) cap.Port {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		log.Fatalf("amoeba: bad port hex: %v", err)
	}
	return cap.Port(v)
}

func parseUint(s string) uint64 {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		log.Fatalf("amoeba: bad number %q", s)
	}
	return v
}
