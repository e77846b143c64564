package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// What a measured run does to the machine so that two runs of the same
// code agree. The sandbox is a two-CPU virtual machine on a shared
// host, and two things there cost more than the program under test and
// change from one second to the next:
//
//   - A virtual CPU with nothing to run halts, and the next wake-up of
//     a thread on it goes through the hypervisor. Every operation here
//     is a chain of wake-ups (client → NIC reader → server worker → … →
//     client), so whether the CPUs happened to halt between them decided
//     the pace: tcp_small's median latency read 107 µs on a quiet
//     machine and 42 µs with an unrelated process burning a core.
//   - A wake-up from one CPU to the other is an inter-processor
//     interrupt, which a virtual machine pays for with an exit to the
//     hypervisor on each side; where the kernel places the threads of
//     three processes decides how many of those an operation makes.
//
// So the whole system under test — the generator and, on the TCP
// workloads, both daemons — runs on ONE CPU, each process with
// GOMAXPROCS 1, and that CPU is kept awake by a thread spinning under
// SCHED_IDLE: the kernel runs such a thread only when the CPU has
// nothing else, and any thread that wakes preempts it at once. A
// wake-up is then a context switch on a running CPU, whatever the host
// does; the other CPU is left to the kernel and to whoever started the
// benchmark. The spinner is a process of its own, so its CPU time is in
// no metric.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// cpuSet is the kernel's cpu_set_t: one bit per CPU.
type cpuSet [16]uint64

func oneCPU(cpu int) *cpuSet {
	var set cpuSet
	set[cpu/64] = 1 << (cpu % 64)
	return &set
}

func getAffinity() (*cpuSet, error) {
	var set cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return &set, nil
}

// setAffinity moves one thread (0: the calling one).
func setAffinity(tid int, set *cpuSet) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*set), uintptr(unsafe.Pointer(set))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// steadyMachine picks the last CPU this process may use (the first one
// takes the network interrupts), moves every thread of this process
// there, and starts the spinner; stopAll ends it with the other
// children. Threads and processes started later inherit the CPU.
func (e *env) steadyMachine() error {
	allowed, err := getAffinity()
	if err != nil {
		return err
	}
	cpu := 0
	for i := 0; i < len(allowed)*64; i++ {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	runtime.GOMAXPROCS(1)
	// Twice: a thread that one not yet moved started during the first
	// pass is in the second listing.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// A thread may end between the listing and the call.
			if err := setAffinity(tid, oneCPU(cpu)); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-spin")
	cmd.Stderr = os.Stderr
	if e.spinner, err = e.procs.start(cmd); err != nil {
		return fmt.Errorf("starting the spinner: %w", err)
	}
	return nil
}

// stayedSteady fails if the spinner is gone: a run during part of which
// the CPU was free to halt is two measurements mixed.
func (e *env) stayedSteady() error {
	if e.spinner != nil && e.spinner.exited() {
		return fmt.Errorf("the spinner process ended during the run: %v", e.spinner.err)
	}
	return nil
}

// spin is the spinner process, on the CPU it inherited: it never
// returns. If it cannot demote itself it ends, and the run with it,
// sooner than spin at normal priority against the benchmark.
func spin() {
	runtime.LockOSThread()
	var priority int32 // sched_param: 0 is the only priority SCHED_IDLE has
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority))); errno != 0 {
		fmt.Fprintln(os.Stderr, "bench: -spin: sched_setscheduler(SCHED_IDLE):", errno)
		os.Exit(1)
	}
	for {
	}
}
