package main

// The open-loop scheduler behind -rate (the package comment says why:
// coordinated omission). Send times are fixed in advance at the offered
// rate and every operation's latency is measured from its *scheduled*
// start, so queueing delay at saturation lands in the histogram. Sends
// the scheduler cannot start on time are counted (late) and sends past
// the backlog bound are counted and skipped (dropped), never hidden.

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// openLoopConfig parameterizes one fixed-rate operation stream.
type openLoopConfig struct {
	// Rate is the offered operation rate per second (> 0).
	Rate float64
	// Workers bounds operation concurrency. 0 means 32.
	Workers int
	// Duration is how long the stream runs.
	Duration time.Duration
	// MaxBacklog bounds scheduled-but-not-started operations; a send
	// arriving at a full backlog is dropped (and counted) instead of
	// queueing without bound. 0 means 4× Workers.
	MaxBacklog int
	// LateThreshold classifies a send as late when it leaves the backlog
	// more than this long after its scheduled time. 0 means 2ms.
	LateThreshold time.Duration
}

func (c *openLoopConfig) defaults() {
	if c.Workers <= 0 {
		c.Workers = 32
	}
	if c.MaxBacklog <= 0 {
		c.MaxBacklog = 4 * c.Workers
	}
	if c.LateThreshold <= 0 {
		c.LateThreshold = 2 * time.Millisecond
	}
}

// openLoopStats reports what the scheduler managed against its offer.
type openLoopStats struct {
	// Scheduled is how many sends the fixed-rate plan called for.
	Scheduled uint64
	// Completed is how many operations ran to completion.
	Completed uint64
	// Dropped counts sends skipped because the backlog was full — offered
	// load the system under test never even saw.
	Dropped uint64
	// Late counts operations that started more than LateThreshold after
	// their scheduled time (their latency still includes that delay).
	Late uint64
	// Elapsed is the wall time of the whole stream, including the drain
	// of in-flight operations after the last send.
	Elapsed time.Duration
}

// openLoop drives op at cfg.Rate for cfg.Duration from a bounded
// worker pool. op receives its worker index and scheduled start time and
// MUST measure its own latency from that scheduled time — that is the
// coordinated-omission contract. Cancel ctx to stop early; in-flight
// operations finish either way.
func openLoop(ctx context.Context, cfg openLoopConfig, op func(worker int, scheduled time.Time)) openLoopStats {
	cfg.defaults()
	var stats openLoopStats
	var late, completed atomic.Uint64

	backlog := make(chan time.Time, cfg.MaxBacklog)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for sched := range backlog {
				if time.Since(sched) > cfg.LateThreshold {
					late.Add(1)
				}
				op(worker, sched)
				completed.Add(1)
			}
		}(w)
	}

	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	start := time.Now()
	end := start.Add(cfg.Duration)
	next := start
dispatch:
	for next.Before(end) {
		// Catch up in a burst: at high rates the sleep below overshoots
		// several intervals, so every wake flushes the whole overdue plan
		// rather than sliding the schedule (which would understate the
		// offered rate).
		now := time.Now()
		for !next.After(now) && next.Before(end) {
			stats.Scheduled++
			select {
			case backlog <- next:
			default:
				stats.Dropped++
			}
			next = next.Add(interval)
		}
		if !next.Before(end) {
			break
		}
		select {
		case <-ctx.Done():
			break dispatch
		case <-time.After(time.Until(next)):
		}
	}
	close(backlog)
	wg.Wait()
	stats.Late = late.Load()
	stats.Completed = completed.Load()
	stats.Elapsed = time.Since(start)
	return stats
}
