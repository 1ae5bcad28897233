package e2e

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wsdetect/waldo/internal/faultinject"
)

// baseSeed is shared by every chaos run in this file: byte-identity is
// only meaningful against a baseline with the same simulation seed.
const baseSeed = 42

var (
	baseOnce sync.Once
	baseRes  *Result
	baseErr  error
)

// baseline runs the fault-free reference once per test binary.
func baseline(t *testing.T) *Result {
	t.Helper()
	baseOnce.Do(func() {
		baseRes, baseErr = Run(Config{Seed: baseSeed})
	})
	if baseErr != nil {
		t.Fatalf("baseline run: %v", baseErr)
	}
	return baseRes
}

func TestBaselineSanity(t *testing.T) {
	base := baseline(t)
	if len(base.DecisionLog) == 0 || len(base.StoreCSV) == 0 {
		t.Fatalf("empty artifacts: log=%d store=%d", len(base.DecisionLog), len(base.StoreCSV))
	}
	log := string(base.DecisionLog)
	if !strings.Contains(log, "cycle=0 channel=47") || !strings.Contains(log, "final channel=47") {
		t.Errorf("decision log missing expected lines:\n%s", log)
	}
	if base.UploadsAccepted == 0 {
		t.Error("baseline accepted no uploads; the store-growth half of the byte-identity check is vacuous")
	}
	if v := base.ModelVersion[47]; v < 2 {
		t.Errorf("final model version = %d, want ≥2 (bootstrap + retrain)", v)
	}
	if base.Retries != 0 || base.StaleServed != 0 {
		t.Errorf("fault-free run used resilience machinery: retries=%d stale=%d",
			base.Retries, base.StaleServed)
	}
	if base.RefreshErrorsWhileCached != 0 {
		t.Errorf("refresh errored %d times while a model was cached", base.RefreshErrorsWhileCached)
	}
}

// TestChaosByteIdentical is the tentpole acceptance test: for seeded
// fault schedules that eventually clear (probability window or finite
// script), the final decision log and database store are byte-identical
// to the fault-free run, and the client never surfaced a refresh error
// while it held a cached model.
func TestChaosByteIdentical(t *testing.T) {
	base := baseline(t)
	cases := []struct {
		name       string
		client     faultinject.Plan
		server     faultinject.Plan
		wantFaults bool
	}{
		{
			name: "client-mixed-window",
			client: faultinject.Schedule{
				Seed: 101, DropP: 0.2, ErrorP: 0.15, CorruptP: 0.1,
				TruncateP: 0.1, DelayP: 0.1, Latency: 2 * time.Millisecond,
				Window: 60,
			},
			wantFaults: true,
		},
		{
			name: "server-mixed-window",
			server: faultinject.Schedule{
				Seed: 202, DropP: 0.2, ErrorP: 0.2, CorruptP: 0.1,
				DelayP: 0.1, Latency: 2 * time.Millisecond,
				Window: 60,
			},
			wantFaults: true,
		},
		{
			name: "both-sides",
			client: faultinject.Schedule{
				Seed: 303, DropP: 0.15, CorruptP: 0.1, Window: 40,
			},
			server: faultinject.Schedule{
				Seed: 404, ErrorP: 0.15, TruncateP: 0.1, Window: 40,
			},
			wantFaults: true,
		},
		{
			name:       "client-drop-burst",
			client:     faultinject.Repeat(faultinject.Fault{Kind: faultinject.Drop}, 9),
			wantFaults: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(Config{
				Seed:       baseSeed,
				ClientPlan: tc.client,
				ServerPlan: tc.server,
			})
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			injected := uint64(0)
			for k, n := range res.ClientFaults {
				if k != faultinject.None {
					injected += n
				}
			}
			for k, n := range res.ServerFaults {
				if k != faultinject.None {
					injected += n
				}
			}
			if tc.wantFaults && injected == 0 {
				t.Fatal("schedule injected no faults; test proves nothing")
			}
			if !bytes.Equal(res.DecisionLog, base.DecisionLog) {
				t.Errorf("decision log diverged from fault-free run\nbase:\n%s\nchaos:\n%s",
					base.DecisionLog, res.DecisionLog)
			}
			if !bytes.Equal(res.StoreCSV, base.StoreCSV) {
				t.Errorf("store contents diverged from fault-free run\nbase:\n%s\nchaos:\n%s",
					base.StoreCSV, res.StoreCSV)
			}
			if res.RefreshErrorsWhileCached != 0 {
				t.Errorf("refresh errored %d times while a model was cached", res.RefreshErrorsWhileCached)
			}
			if injected > 0 && res.Retries == 0 {
				t.Errorf("faults injected (%d) but client never retried", injected)
			}
			t.Logf("injected=%d retries=%d stale=%d client=%v server=%v",
				injected, res.Retries, res.StaleServed, res.ClientFaults, res.ServerFaults)
		})
	}
}

// TestChaosStaleServe drives an outage longer than the client's whole
// retry budget after the model is cached: the client must degrade to the
// cached descriptor (StaleServed > 0) instead of erroring, and the final
// state must still match the fault-free run once the outage clears.
func TestChaosStaleServe(t *testing.T) {
	base := baseline(t)
	// Requests 0–3 are clean (first model download + early uploads);
	// then a 28-request total outage; then clean forever.
	script := make(faultinject.Script, 32)
	for i := 4; i < len(script); i++ {
		script[i] = faultinject.Fault{Kind: faultinject.Drop}
	}
	res, err := Run(Config{Seed: baseSeed, ClientPlan: script})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if res.StaleServed == 0 {
		t.Error("outage past the retry budget never hit the stale-serve path")
	}
	if res.Retries == 0 {
		t.Error("outage produced no retries")
	}
	if res.RefreshErrorsWhileCached != 0 {
		t.Errorf("client surfaced %d refresh errors while a model was cached", res.RefreshErrorsWhileCached)
	}
	if !bytes.Equal(res.DecisionLog, base.DecisionLog) {
		t.Errorf("decision log diverged from fault-free run\nbase:\n%s\nchaos:\n%s",
			base.DecisionLog, res.DecisionLog)
	}
	if !bytes.Equal(res.StoreCSV, base.StoreCSV) {
		t.Error("store contents diverged from fault-free run")
	}
}

// TestChaosReplayDeterminism: the same seed and the same schedule give
// the same artifacts, run over run — the property that makes a chaos
// failure debuggable.
func TestChaosReplayDeterminism(t *testing.T) {
	cfg := Config{
		Seed: baseSeed,
		ClientPlan: faultinject.Schedule{
			Seed: 7, DropP: 0.25, ErrorP: 0.2, CorruptP: 0.1, Window: 50,
		},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !bytes.Equal(a.DecisionLog, b.DecisionLog) {
		t.Error("identical configs produced different decision logs")
	}
	if !bytes.Equal(a.StoreCSV, b.StoreCSV) {
		t.Error("identical configs produced different stores")
	}
}
