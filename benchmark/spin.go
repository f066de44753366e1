package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// A virtual CPU that goes idle halts, and waking it costs a trip through the
// hypervisor: 50–500 µs on the box the baseline was taken on, depending on
// what else the host is doing. Every hop of an op at a third of capacity
// wakes a parked thread, so that cost — not the store's — decided the
// open-loop medians and made them differ by 10–25 % between identical runs.
// The harness therefore keeps every processor out of halt for the length of
// a run, the way latency benchmarks on real hardware disable C-states: one
// child process per CPU, pinned to it, spinning under SCHED_IDLE, a policy
// that only ever gets cycles no other thread wants. The spinners are
// separate processes so that their CPU time is not in the harness's
// getrusage, and they die with the harness whatever ends it.

const schedIdle = 5 // SCHED_IDLE, linux/sched.h

// startSpinners starts one spinner per CPU and returns the function that
// kills them and waits until each has ended.
func startSpinners() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: note: no spinners:", err)
		return func() {}
	}
	var cmds []*exec.Cmd
	for _, cpu := range allowedCPUs() {
		cmd := exec.Command(self, "spin", fmt.Sprint(cpu))
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: note: spinner not started:", err)
			continue
		}
		cmds = append(cmds, cmd)
	}
	return func() {
		for _, cmd := range cmds {
			cmd.Process.Kill()
		}
		for _, cmd := range cmds {
			cmd.Wait() // killed: its error says so and nothing more
		}
	}
}

// cpuMask is a sched_setaffinity mask; 1024 CPUs is the kernel's default size.
type cpuMask [1024 / 64]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var mask cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: note: no spinners: sched_getaffinity:", e)
		return nil
	}
	var cpus []int
	for cpu := 0; cpu < len(mask)*64; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

// spinMain is the spinner process: pin to the CPU, drop to SCHED_IDLE, spin
// until killed. It refuses to spin at a normal priority, where it would
// take cycles from the run it is meant to steady.
func spinMain(args []string) int {
	var cpu int
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: spin <cpu>")
		return 2
	}
	if _, err := fmt.Sscan(args[0], &cpu); err != nil || cpu < 0 || cpu >= 1024 {
		fmt.Fprintln(os.Stderr, "spin: bad cpu", args[0])
		return 2
	}
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: note: spinner: sched_setaffinity:", e)
		return 1
	}
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: note: spinner: sched_setscheduler(SCHED_IDLE):", e)
		return 1
	}
	for {
	}
}
