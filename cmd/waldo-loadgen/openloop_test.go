package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopHoldsOfferedRate runs a fast no-op workload and asserts the
// scheduler dispatches approximately Rate × Duration operations, with
// nothing dropped and every send accounted for.
func TestOpenLoopHoldsOfferedRate(t *testing.T) {
	var ran atomic.Uint64
	stats := openLoop(context.Background(), openLoopConfig{
		Rate:     2000,
		Workers:  8,
		Duration: 500 * time.Millisecond,
	}, func(_ int, _ time.Time) { ran.Add(1) })

	want := uint64(2000 * 0.5)
	if stats.Scheduled < want*8/10 || stats.Scheduled > want*12/10 {
		t.Errorf("Scheduled = %d, want ≈%d", stats.Scheduled, want)
	}
	if stats.Dropped != 0 {
		t.Errorf("Dropped = %d on an instant workload", stats.Dropped)
	}
	if stats.Completed != stats.Scheduled-stats.Dropped {
		t.Errorf("Completed = %d, Scheduled-Dropped = %d", stats.Completed, stats.Scheduled-stats.Dropped)
	}
	if ran.Load() != stats.Completed {
		t.Errorf("op ran %d times, Completed = %d", ran.Load(), stats.Completed)
	}
}

// TestOpenLoopCountsDroppedAndLate saturates a single slow worker with a
// far higher offered rate: the bounded backlog must shed sends (dropped)
// and everything that does run starts behind schedule (late), instead of
// the scheduler silently slowing the offer to the worker's pace.
func TestOpenLoopCountsDroppedAndLate(t *testing.T) {
	stats := openLoop(context.Background(), openLoopConfig{
		Rate:          1000,
		Workers:       1,
		MaxBacklog:    2,
		Duration:      300 * time.Millisecond,
		LateThreshold: time.Millisecond,
	}, func(_ int, _ time.Time) { time.Sleep(10 * time.Millisecond) })

	if stats.Dropped == 0 {
		t.Error("saturated backlog dropped nothing — offered load is being hidden")
	}
	if stats.Late == 0 {
		t.Error("10ms ops at a 1ms schedule recorded no late sends")
	}
	if stats.Completed+stats.Dropped != stats.Scheduled {
		t.Errorf("accounting leak: completed %d + dropped %d != scheduled %d",
			stats.Completed, stats.Dropped, stats.Scheduled)
	}
	// The point of open loop: ~30 completions against ~300 scheduled.
	if stats.Completed >= stats.Scheduled/2 {
		t.Errorf("Completed = %d of %d scheduled; the slow worker cannot have kept up", stats.Completed, stats.Scheduled)
	}
}

// TestOpenLoopLatencyFromSchedule asserts the coordinated-omission
// contract end to end: with one worker busy 20ms per op at a 5ms
// schedule, latency measured from the scheduled time must grow with the
// queue — the max observed must be well above a single op's service time.
func TestOpenLoopLatencyFromSchedule(t *testing.T) {
	var maxNs atomic.Int64
	openLoop(context.Background(), openLoopConfig{
		Rate:       200,
		Workers:    1,
		MaxBacklog: 64,
		Duration:   250 * time.Millisecond,
	}, func(_ int, sched time.Time) {
		time.Sleep(20 * time.Millisecond)
		lat := time.Since(sched).Nanoseconds()
		for {
			cur := maxNs.Load()
			if lat <= cur || maxNs.CompareAndSwap(cur, lat) {
				break
			}
		}
	})
	if got := time.Duration(maxNs.Load()); got < 40*time.Millisecond {
		t.Errorf("max latency from schedule = %v; queueing delay is being omitted (service time is 20ms)", got)
	}
}

// TestOpenLoopCancel stops the stream early via ctx.
func TestOpenLoopCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	openLoop(ctx, openLoopConfig{Rate: 10, Workers: 2, Duration: 30 * time.Second},
		func(_ int, _ time.Time) {})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancel did not stop the stream (ran %v)", elapsed)
	}
}
