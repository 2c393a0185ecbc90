//go:build !(dragonfly || freebsd || linux || netbsd || openbsd || solaris)

package core

import "time"

// park sleeps for at least d. Without syscall.Nanosleep this is the runtime
// timer; the pacer learns its coarser overshoot like any other.
func park(d time.Duration) { time.Sleep(d) }
