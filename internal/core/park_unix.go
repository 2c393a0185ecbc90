//go:build dragonfly || freebsd || linux || netbsd || openbsd || solaris

package core

import (
	"syscall"
	"time"
)

// park sleeps in the kernel, outside the runtime's timer heap, for at least
// d. The error is dropped: an interrupted sleep is a short one, and the
// pacer re-reads the clock after every park.
func park(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}
