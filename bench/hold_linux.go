package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Idle holders. The review host is a nested virtual machine on a shared
// box: a virtual processor that goes idle is handed back to the host, which
// may run a neighbour there, and getting it back costs from a few
// microseconds to milliseconds depending on what the neighbours do. A step
// has many short idle gaps (rank exchanges, parallel-loop joins, serial
// sections), so its time then follows the neighbours' load in episodes of
// tens of seconds, which no estimator inside a run removes. A holder is a
// child process pinned to one processor in the SCHED_IDLE class: the guest
// scheduler runs it only when nothing else wants that processor and
// preempts it at once when something does, so it takes no time from the
// workload, but the processor never goes idle and is never handed back.
// Measured on the review host in its busiest hour, holders on and off in
// alternating 16-second phases: the inter-quartile range of one-second block
// medians fell from 22-42 % of the median to 9-15 % on every engine, and the
// medians by 5-24 %. In a quieter hour the holders changed little; see
// README.md for whole runs.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

type cpuMask [16]uint64 // 1024 processors

// allowedCPUs lists the processors this process may run on.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// holdCPU is the body of a holder process (bench -hold-cpu N): it pins
// itself to cpu, drops to the idle class and spins until its parent is
// gone. It returns 1 at once if it cannot do both, because a holder in the
// normal class would compete with the workload.
func holdCPU(cpu int) int {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	var m cpuMask
	if cpu < 0 || cpu >= len(m)*64 {
		return 1
	}
	m[cpu/64] |= 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return 1
	}
	var prio int32 // struct sched_param{0}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
		return 1
	}
	parent := os.Getppid()
	x := uint64(1)
	for os.Getppid() == parent {
		// A dependent multiply chain: busy, but it asks little of a core it
		// may share with a working hyperthread.
		for i := 0; i < 1<<20; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return int(x & 0) // x stays live, so the loop is not removed
}

// startHolders starts one holder per allowed processor and returns the
// function that kills them and waits for each to end. A holder that cannot
// start is skipped: the run is then only noisier. Holders also end on their
// own when this process dies (Pdeathsig, and the parent check in holdCPU).
func startHolders() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var holders []*exec.Cmd
	for _, cpu := range allowedCPUs() {
		c := exec.Command(self, "-hold-cpu", strconv.Itoa(cpu))
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if c.Start() == nil {
			holders = append(holders, c)
		}
	}
	return func() {
		for _, c := range holders {
			_ = c.Process.Kill() // already gone if it could not enter the idle class
			_ = c.Wait()         // the exit status of a killed spinner says nothing
		}
	}
}
