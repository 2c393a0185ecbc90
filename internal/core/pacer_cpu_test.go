//go:build dragonfly || freebsd || linux || netbsd || openbsd || solaris

package core

import (
	"context"
	"fmt"
	"syscall"
	"testing"
	"time"
)

func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestPacerCPUBudget is what rejects a pacer that spins for its marks: one
// second of the no-op benchmark at 1000 tps may cost the whole process at
// most 0.3 s of CPU.
func TestPacerCPUBudget(t *testing.T) {
	withRetries(t, func() error {
		m := newNopManager(t, nopBench{}, []Phase{{Duration: time.Second, Rate: 1000}}, Options{Terminals: 2})
		before := processCPU(t)
		if err := m.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		used := processCPU(t) - before
		t.Logf("%v of CPU for one second at 1000 tps; spin %.3f", used, m.PacerSpinFrac())
		if used > 300*time.Millisecond {
			return fmt.Errorf("one second at 1000 tps used %v of CPU, want < 0.3 s", used)
		}
		return nil
	})
}
