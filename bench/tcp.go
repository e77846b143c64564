package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"amoeba/internal/amnet"
	"amoeba/internal/cap"
	"amoeba/internal/crypto"
	"amoeba/internal/fbox"
	"amoeba/internal/locate"
	"amoeba/internal/rpc"
	"amoeba/internal/server/dirsvr"
	"amoeba/internal/server/flatfs"
)

// buildAmoebad compiles the daemon once, before anything is timed.
func (e *env) buildAmoebad() error {
	if e.amoebad != "" {
		return nil
	}
	out := filepath.Join(e.root, buildDir, "amoebad")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/amoebad")
	cmd.Dir = e.root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building amoebad: %v\n%s", err, msg)
	}
	e.amoebad = out
	return nil
}

// freePorts picks n loopback ports the kernel considers free now. The
// registry every machine is started with must hold fixed addresses
// (replies are dialled from it), so ":0" is not an option.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// tcpCluster is two amoebad processes (m1: directory, m2: block+file)
// and the generator attached as machine 3 over loopback TCP.
type tcpCluster struct {
	daemons []*child
	pids    []int
	ports   map[string]cap.Port // service name → put-port, as the daemons printed them
	metrics []string            // the daemons' /metrics URLs
	fb      *fbox.FBox
	res     *locate.Resolver
	client  *rpc.Client
}

func (e *env) bootTCP(seed uint64) (*tcpCluster, error) {
	p, err := freePorts(5)
	if err != nil {
		return nil, err
	}
	reg := map[amnet.MachineID]string{}
	var regFlag []string
	for m := 1; m <= 3; m++ {
		reg[amnet.MachineID(m)] = fmt.Sprintf("127.0.0.1:%d", p[m-1])
		regFlag = append(regFlag, fmt.Sprintf("%d=127.0.0.1:%d", m, p[m-1]))
	}
	tc := &tcpCluster{ports: map[string]cap.Port{}}
	ok := false
	defer func() {
		if !ok {
			tc.close()
		}
	}()
	for m, services := range []string{"dir", "block,file"} {
		m++
		debug := fmt.Sprintf("127.0.0.1:%d", p[2+m])
		logf, err := os.Create(filepath.Join(e.outDir, fmt.Sprintf("amoebad-m%d.log", m)))
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(e.amoebad,
			"-machine", strconv.Itoa(m),
			"-registry", strings.Join(regFlag, ","),
			"-services", services,
			"-seed", strconv.FormatUint(seed, 10),
			"-debug-addr", debug)
		cmd.Stderr = logf
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			logf.Close()
			return nil, err
		}
		if e.steady {
			// The daemon inherits this process's one CPU; give it one Go
			// processor to match.
			cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		}
		d, err := e.procs.start(cmd)
		logf.Close() // the child holds its own descriptor
		if err != nil {
			return nil, err
		}
		tc.daemons = append(tc.daemons, d)
		tc.pids = append(tc.pids, cmd.Process.Pid)
		tc.metrics = append(tc.metrics, "http://"+debug+"/metrics")
		// The daemon prints one "service<TAB>put-port" line per service
		// once that service is serving.
		sc := bufio.NewScanner(stdout)
		for want := strings.Count(services, ",") + 1; want > 0; want-- {
			if !sc.Scan() {
				return nil, fmt.Errorf("amoebad m%d ended before announcing its services (see %s)", m, logf.Name())
			}
			name, hex, found := strings.Cut(sc.Text(), "\t")
			port, err := strconv.ParseUint(hex, 16, 64)
			if !found || err != nil {
				return nil, fmt.Errorf("amoebad m%d: unexpected line %q", m, sc.Text())
			}
			tc.ports[name] = cap.Port(port)
		}
	}
	nic, err := amnet.NewTCPNet(3, reg)
	if err != nil {
		return nil, err
	}
	tc.fb = fbox.New(nic, nil)
	tc.res = locate.New(tc.fb, locate.Config{})
	tc.client = rpc.NewClient(tc.fb, tc.res, rpc.ClientConfig{Source: crypto.NewSeededSource(seed)})
	// The debug listener starts after the services; wait until both
	// daemons answer a scrape so the first boundary read cannot race it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = scrapeURLs(tc.metrics); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("amoebad /metrics never came up: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ok = true
	return tc, nil
}

func (tc *tcpCluster) alive() error {
	for i, d := range tc.daemons {
		if d.exited() {
			return fmt.Errorf("amoebad m%d exited early: %v", i+1, d.err)
		}
	}
	return nil
}

func (tc *tcpCluster) close() {
	if tc.fb != nil {
		tc.fb.Close()
	}
	for _, d := range tc.daemons {
		d.stop()
	}
}

func (tc *tcpCluster) rig() *rig {
	return &rig{
		tcp:        tc,
		scrape:     func() (promSnap, error) { return scrapeURLs(tc.metrics) },
		broadcasts: func() uint64 { return tc.res.Stats().Broadcasts },
		pids:       tc.pids,
		alive:      tc.alive,
		close:      tc.close,
	}
}

// tree is a populated directory tree: every root-to-leaf path and the
// capability a correct walk of it must return.
type tree struct {
	root  cap.Capability
	top   []string // names entered directly under root
	paths []string
	want  []cap.Capability
	// mid[i] is the directory at depth midDepth on paths[i].
	mid []cap.Capability
}

// buildTree populates fan[0]×fan[1]×… leaf paths under a fresh root on
// the directory service at port. Leaves are synthetic capabilities (a
// directory stores any capability), so each path has a distinct right
// answer. Names come from rng.
func buildTree(ctx context.Context, dirs *dirsvr.Client, port cap.Port, rng *rand.Rand, fan []int, midDepth int) (*tree, error) {
	t := &tree{}
	var err error
	if t.root, err = dirs.CreateDir(ctx, port); err != nil {
		return nil, failedOp("create root", err)
	}
	var grow func(dir cap.Capability, depth int, prefix string, mid cap.Capability) error
	grow = func(dir cap.Capability, depth int, prefix string, mid cap.Capability) error {
		if depth == midDepth {
			mid = dir
		}
		for j := 0; j < fan[depth]; j++ {
			name := fmt.Sprintf("%06x%d", rng.Uint32()&0xffffff, j)
			if depth == 0 {
				t.top = append(t.top, name)
			}
			if depth == len(fan)-1 {
				leaf := cap.Capability{Server: 1, Object: uint32(len(t.paths)) + 1, Rights: cap.RightRead, Check: rng.Uint64() & cap.CheckMask}
				if err := dirs.Enter(ctx, dir, name, leaf); err != nil {
					return failedOp("enter leaf", err)
				}
				t.paths = append(t.paths, prefix+name)
				t.want = append(t.want, leaf)
				t.mid = append(t.mid, mid)
				continue
			}
			sub, err := dirs.CreateDir(ctx, port)
			if err != nil {
				return failedOp("create directory", err)
			}
			if err := dirs.Enter(ctx, dir, name, sub); err != nil {
				return failedOp("enter directory", err)
			}
			if err := grow(sub, depth+1, prefix+name+"/", mid); err != nil {
				return err
			}
		}
		return nil
	}
	return t, grow(t.root, 0, "", cap.Nil)
}

// lookup walks paths[i] and checks the answer against the capability
// recorded when the tree was populated.
func (t *tree) lookup(ctx context.Context, dirs *dirsvr.Client, i int) error {
	got, err := dirs.LookupPath(ctx, t.root, t.paths[i])
	if err != nil {
		return err
	}
	if got != t.want[i] {
		return fmt.Errorf("LookupPath(%q) = %v, populated %v: %w", t.paths[i], got, t.want[i], errWrong)
	}
	return nil
}

// mark is the capability scratch entries hold.
var mark = cap.Capability{Server: 1, Object: 2, Rights: cap.RightRead, Check: 3}

// toggler enters and removes one private name in one directory,
// alternately, and remembers which state was acknowledged last.
type toggler struct {
	dir     cap.Capability
	name    string
	present bool
}

func (t *toggler) flip(ctx context.Context, dirs *dirsvr.Client) (entered bool, err error) {
	if t.present {
		err = dirs.Remove(ctx, t.dir, t.name)
	} else {
		err = dirs.Enter(ctx, t.dir, t.name, mark)
	}
	if err != nil {
		return !t.present, err
	}
	t.present = !t.present
	return t.present, nil
}

// listed compares a directory's listing with the names that should be
// in it and returns how many differ either way.
func listed(ctx context.Context, dirs *dirsvr.Client, dir cap.Capability, want map[string]bool) (int, error) {
	entries, err := dirs.List(ctx, dir)
	if err != nil {
		return 0, failedOp("list", err)
	}
	diff := 0
	got := map[string]bool{}
	for _, e := range entries {
		got[e.Name] = true
		if !want[e.Name] {
			diff++
		}
	}
	for name := range want {
		if !got[name] {
			diff++
		}
	}
	return diff, nil
}

// Operation kinds of the directory workloads.
const (
	kLookup = iota
	kEnter
	kRemove
	kTransfer // sim_write
	kMiss     // sim_walk: a walk the client's own write just invalidated
)

// setupTCPSmall: 90 % LookupPath over 256 depth-4 paths, 10 % Enter or
// Remove of a per-client name in the root.
func (e *env) setupTCPSmall(seed uint64) (*rig, error) {
	tc, err := e.bootTCP(seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	dirs := dirsvr.NewClient(tc.client)
	rng := rand.New(rand.NewSource(int64(seed)))
	t, err := buildTree(ctx, dirs, tc.ports["dir"], rng, []int{4, 4, 4, 4}, -1)
	if err != nil {
		tc.close()
		return nil, err
	}
	scratch := make([]*toggler, loadClients)
	for c := range scratch {
		scratch[c] = &toggler{dir: t.root, name: fmt.Sprintf("client%d-%04x", c, rng.Uint32()&0xffff)}
	}
	r := tc.rig()
	r.trees = []*tree{t}
	r.kinds = []opKind{
		kLookup: {"dirsvr.lookup_path", "dirsvr.walk4_us", us},
		kEnter:  {"dirsvr.enter", "dirsvr.enter_us", us},
		kRemove: {"dirsvr.remove", "", 0},
	}
	r.op = func(c int, rng *rand.Rand) (int, error) {
		if rng.Intn(10) == 0 {
			entered, err := scratch[c].flip(ctx, dirs)
			if entered {
				return kEnter, err
			}
			return kRemove, err
		}
		return kLookup, t.lookup(ctx, dirs, rng.Intn(len(t.paths)))
	}
	r.check = func() (int, error) {
		want := map[string]bool{}
		for _, name := range t.top {
			want[name] = true
		}
		for _, s := range scratch {
			if s.present {
				want[s.name] = true
			}
		}
		return listed(ctx, dirs, t.root, want)
	}
	return r, nil
}

const (
	fileChunk = 16 << 10
	fileSlots = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fileState is one client's file and the checksum of the last
// acknowledged write to each of its 16 KiB slots.
type fileState struct {
	file  cap.Capability
	sums  [fileSlots]uint32
	pool  []byte // seeded random bytes writes are cut from
	buf   []byte
	next  int
	write bool
}

func (f *fileState) writeSlot(ctx context.Context, files *flatfs.Client, rng *rand.Rand) error {
	slot := f.next % fileSlots
	f.next++
	off := rng.Intn(len(f.pool) - fileChunk)
	copy(f.buf, f.pool[off:off+fileChunk])
	// Stamp the write so two writes cut from the same offset differ.
	f.buf[0], f.buf[1], f.buf[2], f.buf[3] = byte(f.next), byte(f.next>>8), byte(f.next>>16), byte(f.next>>24)
	if err := files.WriteAt(ctx, f.file, uint64(slot)*fileChunk, f.buf); err != nil {
		return err
	}
	f.sums[slot] = crc32.Checksum(f.buf, castagnoli)
	return nil
}

func (f *fileState) readSlot(ctx context.Context, files *flatfs.Client, slot int) error {
	data, err := files.ReadAt(ctx, f.file, uint64(slot)*fileChunk, fileChunk)
	if err != nil {
		return err
	}
	if len(data) != fileChunk || crc32.Checksum(data, castagnoli) != f.sums[slot] {
		return fmt.Errorf("slot %d read back %d bytes that do not match the last acknowledged write: %w", slot, len(data), errWrong)
	}
	return nil
}

// Operation kinds of tcp_file.
const (
	kWrite16k = iota
	kRead16k
)

// setupTCPFile: per client one file, alternating 16 KiB WriteAt and
// ReadAt, every read checked against the last acknowledged write.
func (e *env) setupTCPFile(seed uint64) (*rig, error) {
	tc, err := e.bootTCP(seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	files := flatfs.NewClient(tc.client, tc.ports["file"])
	rng := rand.New(rand.NewSource(int64(seed)))
	states := make([]*fileState, loadClients)
	for c := range states {
		f := &fileState{pool: make([]byte, 4*fileChunk), buf: make([]byte, fileChunk)}
		rng.Read(f.pool)
		if f.file, err = files.Create(ctx); err == nil {
			for s := 0; s < fileSlots && err == nil; s++ {
				err = f.writeSlot(ctx, files, rng)
			}
		}
		if err != nil {
			tc.close()
			return nil, failedOp("populate file", err)
		}
		states[c] = f
	}
	r := tc.rig()
	r.kinds = []opKind{
		kWrite16k: {"flatfs.write16k", "flatfs.write16k_us", us},
		kRead16k:  {"flatfs.read16k", "flatfs.read16k_us", us},
	}
	r.op = func(c int, rng *rand.Rand) (int, error) {
		f := states[c]
		f.write = !f.write
		if f.write {
			return kWrite16k, f.writeSlot(ctx, files, rng)
		}
		return kRead16k, f.readSlot(ctx, files, rng.Intn(fileSlots))
	}
	r.check = func() (int, error) {
		lost := 0
		for _, f := range states {
			for s := 0; s < fileSlots; s++ {
				if err := f.readSlot(ctx, files, s); err != nil {
					lost++
				}
			}
		}
		return lost, nil
	}
	return r, nil
}
