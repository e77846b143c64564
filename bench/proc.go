package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procUsage is one process's CPU time so far and its peak resident
// set, read from /proc so the generator and the amoebad children are
// measured the same way, and a running child can be read at the window
// boundaries (rusage of a child exists only after it has been reaped).
type procUsage struct {
	cpu   time.Duration
	hwmKB float64
}

// Linux reports /proc/<pid>/stat times in USER_HZ ticks, which is 100
// on every supported architecture.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	s := string(stat)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return u, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return u, err
	}
	u.cpu = time.Duration(utime+stime) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return u, fmt.Errorf("/proc/%d/status: %q: %w", pid, line, err)
			}
			u.hwmKB = kb
			return u, nil
		}
	}
	return u, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// usage returns the generator's own usage and the sum of it and every
// child's. The generator reads its own CPU time from getrusage, which
// counts microseconds where /proc counts 10 ms ticks; sim_failover
// spends only a few ticks per second. Its peak resident set comes from
// /proc all the same: ru_maxrss survives exec, so under `go run` it
// starts at the go command's peak, not this program's.
func usage(children []int) (self, total procUsage, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return self, total, err
	}
	if self, err = readProc(os.Getpid()); err != nil {
		return self, total, err
	}
	self.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	total = self
	for _, pid := range children {
		u, err := readProc(pid)
		if err != nil {
			return self, total, fmt.Errorf("child %d is gone: %w", pid, err)
		}
		total.cpu += u.cpu
		total.hwmKB += u.hwmKB
	}
	return self, total, nil
}

// cpuTicks reads the machine's CPU time so far from /proc/stat: the time
// the hypervisor ran something else while a virtual CPU had work
// (steal), and all time. On a shared host the ratio over a run says how
// much of a slow run was the neighbours'.
func cpuTicks() (steal, all uint64, err error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, field := range f[1:] {
		n, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		if i == 7 {
			steal = n
		}
		if i < 8 { // guest time is already counted in user time
			all += n
		}
	}
	return steal, all, nil
}

// children tracks every process the benchmark starts, so each exit
// path — normal return, failed check, SIGINT — stops them all and
// waits for them.
type children struct {
	mu    sync.Mutex
	procs []*child
}

type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait has returned
	err  error
}

func (c *children) start(cmd *exec.Cmd) (*child, error) {
	// If the generator dies without running its exit paths (SIGKILL),
	// the kernel still takes the children down.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ch := &child{cmd: cmd, done: make(chan struct{})}
	go func() {
		ch.err = cmd.Wait()
		close(ch.done)
	}()
	c.mu.Lock()
	c.procs = append(c.procs, ch)
	c.mu.Unlock()
	return ch, nil
}

// exited reports whether the child has ended.
func (ch *child) exited() bool {
	select {
	case <-ch.done:
		return true
	default:
		return false
	}
}

// stop asks the child to shut down, kills it if it does not, and
// returns once it has been reaped.
func (ch *child) stop() {
	if ch.exited() {
		return
	}
	_ = ch.cmd.Process.Signal(os.Interrupt)
	select {
	case <-ch.done:
	case <-time.After(2 * time.Second):
		_ = ch.cmd.Process.Kill()
		<-ch.done
	}
}

func (c *children) stopAll() {
	c.mu.Lock()
	procs := c.procs
	c.procs = nil
	c.mu.Unlock()
	for _, ch := range procs {
		ch.stop()
	}
}
