package core

import (
	"context"
	"runtime"
	"time"
)

// pacer waits for arrival due times. The runtime's timers cannot: an idle
// scheduler sleeps in the netpoller, whose timeout is whole milliseconds, so
// a 50 µs time.Sleep returns a millisecond late. The pacer instead parks in
// the kernel (see park) until just short of the mark and yield-spins the
// rest:
//
//	now ............... due - early .............. due
//	     parked in the kernel      runtime.Gosched loop
//
// early is the smaller of margin, the park overshoot learned on this host,
// and a quarter of the mean gap between arrivals. The second bound is the
// spin budget: arrivals spin for at most a quarter of their spacing, so the
// producer never burns more than a quarter of a CPU whatever the rate. A
// rate whose gap is shorter than the overshoot is hardly spun for at all:
// each wake-up finds several arrivals due, and the caller releases them as
// one batch, each with its own due time.
//
// A pacer belongs to the one goroutine that calls it.
type pacer struct {
	// margin tracks a high quantile of how late park returns: a wake-up past
	// margin raises it eight steps, one within margin lowers it one, so it
	// settles where about one wake-up in nine comes late, and a single
	// preempted sleep barely moves it.
	margin time.Duration
	// spun is the total time spent in the yield loop.
	spun time.Duration
}

const (
	// parkSlice bounds one kernel sleep, which nothing can interrupt: a
	// cancelled run is noticed within a slice.
	parkSlice = 2 * time.Millisecond
	// marginStep is the unit margin moves by, and maxMargin its bound.
	marginStep = time.Microsecond
	maxMargin  = time.Millisecond
)

// wait blocks until due (on the monotonic clock of since) and returns the
// clock reading that satisfied it, or false once ctx is cancelled. gap is
// the mean spacing of the arrivals being paced. It never returns early.
func (p *pacer) wait(ctx context.Context, since time.Time, due, gap time.Duration) (time.Duration, bool) {
	// A goroutine asleep in a system call keeps its P, and the workers the
	// caller has just readied sit in that P's run queue until sysmon takes
	// it back: let them run first.
	runtime.Gosched()
	now := time.Since(since)
	for {
		early := min(p.margin, gap/4)
		if due-now <= early {
			break
		}
		d := min(due-now-early, parkSlice)
		park(d)
		woke := time.Since(since)
		switch over := woke - now - d; {
		case over < 0:
			// A signal cut the sleep short, which says nothing about
			// overshoot.
		case over > p.margin:
			p.margin = min(p.margin+8*marginStep, maxMargin)
		default:
			p.margin -= marginStep
		}
		now = woke
		if ctx.Err() != nil {
			return now, false
		}
	}
	if now < due {
		from := now
		for now < due {
			runtime.Gosched()
			now = time.Since(since)
		}
		p.spun += now - from
	}
	return now, true
}
