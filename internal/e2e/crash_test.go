package e2e

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/faultinject"
)

// TestCrashRecoveryByteIdentical is the durability acceptance test: a
// server killed mid-campaign (WAL flushed, no clean shutdown, no
// snapshot) and restarted from disk must finish the run with a decision
// log, store export, and served model versions byte-identical to the
// uninterrupted baseline.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	base := baseline(t)
	for _, tc := range []struct {
		name  string
		crash CrashConfig
	}{
		{name: "clean-kill", crash: CrashConfig{AfterCycle: 3}},
		{name: "torn-tail", crash: CrashConfig{AfterCycle: 2, TornTail: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.crash.DataDir = t.TempDir()
			got, err := RunCrash(Config{Seed: baseSeed}, tc.crash)
			if err != nil {
				t.Fatalf("RunCrash: %v", err)
			}
			if !bytes.Equal(got.DecisionLog, base.DecisionLog) {
				t.Errorf("decision log diverged after crash recovery:\n--- baseline ---\n%s\n--- recovered ---\n%s",
					base.DecisionLog, got.DecisionLog)
			}
			if !bytes.Equal(got.StoreCSV, base.StoreCSV) {
				t.Error("store CSV diverged after crash recovery")
			}
			for ch, want := range base.ModelVersion {
				if got.ModelVersion[ch] != want {
					t.Errorf("channel %d model version = %d, want %d", int(ch), got.ModelVersion[ch], want)
				}
			}
			if got.UploadsAccepted != base.UploadsAccepted {
				t.Errorf("uploads accepted = %d, want %d", got.UploadsAccepted, base.UploadsAccepted)
			}
		})
	}
}

// TestCrashRecoveryUnderChaos combines the two failure axes: a flaky
// network before and after a mid-campaign server crash. The schedule
// clears inside each incarnation's window, so the run must still
// converge to the baseline bytes.
func TestCrashRecoveryUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos crash run in -short mode")
	}
	base := baseline(t)
	got, err := RunCrash(Config{
		Seed: baseSeed,
		ClientPlan: faultinject.Schedule{
			Seed: 505, DropP: 0.15, ErrorP: 0.1, Window: 40,
		},
	}, CrashConfig{DataDir: t.TempDir(), AfterCycle: 3, TornTail: true})
	if err != nil {
		t.Fatalf("RunCrash: %v", err)
	}
	if !bytes.Equal(got.DecisionLog, base.DecisionLog) {
		t.Error("decision log diverged after crash recovery under chaos")
	}
	if !bytes.Equal(got.StoreCSV, base.StoreCSV) {
		t.Error("store CSV diverged after crash recovery under chaos")
	}
	if got.ClientFaults[faultinject.Drop] == 0 {
		t.Error("no drops injected; the chaos half of this test is vacuous")
	}
}

// TestRunCrashValidation pins the config contract.
func TestRunCrashValidation(t *testing.T) {
	if _, err := RunCrash(Config{Seed: 1}, CrashConfig{AfterCycle: 1}); err == nil {
		t.Error("missing data dir accepted")
	}
	if _, err := RunCrash(Config{Seed: 1}, CrashConfig{DataDir: t.TempDir(), AfterCycle: 0}); err == nil {
		t.Error("crash before any cycle accepted")
	}
	if _, err := RunCrash(Config{Seed: 1}, CrashConfig{DataDir: t.TempDir(), AfterCycle: runCycles}); err == nil {
		t.Error("crash after the last cycle accepted")
	}
}

// TestRunCrashLeavesNoGoroutine: the killed incarnation is stopped, not
// abandoned, and the survivor is torn down at the end, so a crash run
// ends with the goroutines it started with.
func TestRunCrashLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := RunCrash(Config{Seed: baseSeed}, CrashConfig{DataDir: t.TempDir(), AfterCycle: 3}); err != nil {
		t.Fatalf("RunCrash: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after the run, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}
