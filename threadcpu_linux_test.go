//go:build linux

package bcnphase_test

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which syscall
// does not name. getrusage(RUSAGE_THREAD) would read the same clock but
// only as of the thread's last scheduler tick, too coarse for runs of a
// few milliseconds.
const clockThreadCPUTime = 3

// threadCPU is the CPU time the calling OS thread has used; callers
// lock their goroutine to the thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
