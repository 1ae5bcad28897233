package core

import (
	"bytes"
	"sync"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
)

// encodeForCompare serializes a model so two builds can be compared
// bit-for-bit.
func encodeForCompare(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildModelWorkerDeterminism is the parallel-pipeline contract: a
// model built with a worker pool must be bit-identical to a serial build.
// Every locality trains with a salt derived from its index, the k-means
// reductions run in fixed order and the workers' recycled design matrices
// (svm's pool) carry nothing from one fit into the next, so the encoded
// descriptors must match byte for byte — and -race must stay quiet.
// Every build clears the localities memo, so each runs k-means with its
// own worker count.
func TestBuildModelWorkerDeterminism(t *testing.T) {
	readings, labels := synthReadings(1500, 21)
	for _, kind := range []ClassifierKind{KindSVM, KindNB} {
		lastLocalities.Store(nil)
		serial, err := BuildModel(readings, labels, ConstructorConfig{ClusterK: 6, Classifier: kind, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := encodeForCompare(t, serial)
		for _, workers := range []int{0, 2, 3, 8} {
			lastLocalities.Store(nil)
			m, err := BuildModel(readings, labels, ConstructorConfig{ClusterK: 6, Classifier: kind, Workers: workers})
			if err != nil {
				t.Fatalf("%v workers=%d: %v", kind, workers, err)
			}
			if got := encodeForCompare(t, m); !bytes.Equal(got, want) {
				t.Errorf("%v: workers=%d model differs from serial build (%d vs %d bytes)",
					kind, workers, len(got), len(want))
			}
		}
	}
}

// TestClassifySharedModelConcurrently classifies with one decoded model
// from several goroutines, as a server answering availability queries or
// a WSD scanning channels in parallel does. Classify is a read path: it
// must write nothing on the model, which is what -race (make check)
// verifies here, and every goroutine must see the serial answers.
func TestClassifySharedModelConcurrently(t *testing.T) {
	readings, labels := synthReadings(600, 27)
	built, err := BuildModel(readings, labels, ConstructorConfig{ClusterK: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	model, err := DecodeModel(bytes.NewReader(encodeForCompare(t, built)))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]dataset.Label, len(readings))
	for i, r := range readings {
		if want[i], err = built.ClassifyReading(r); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(readings); i += 2 {
				got, err := model.ClassifyReading(readings[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[i] {
					t.Errorf("goroutine %d: reading %d classified %v, serial build says %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestBuildModelRejectsNegativeWorkers(t *testing.T) {
	readings, labels := synthReadings(50, 3)
	if _, err := BuildModel(readings, labels, ConstructorConfig{Workers: -2}); err == nil {
		t.Fatal("negative worker count must be rejected")
	}
}

// TestUpdaterConcurrentStress drives Submit, Retrain, Model, and Readings
// from concurrent goroutines; under -race (make check) this is the proof
// that the snapshot-retrain holds no lock while training and publishes the
// model pointer safely.
func TestUpdaterConcurrentStress(t *testing.T) {
	readings, _ := synthReadings(400, 23)
	u, err := NewUpdater(UpdaterConfig{
		Constructor: ConstructorConfig{ClusterK: 3, Classifier: KindNB},
	})
	if err != nil {
		t.Fatal(err)
	}
	u.Bootstrap(readings[:200])
	if _, err := u.Retrain(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	// Uploaders: small accepted batches.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lo := 200 + (g*20+i)*5%190
				batch := UploadBatch{Readings: readings[lo : lo+5], CISpanDB: 0.5}
				if err := u.Submit(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Retrainers: collide on the single-flight latch.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := u.Retrain(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Readers: model downloads and store scans must never block on a
	// rebuild (and must be race-free against the pointer swap).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if m, v := u.Model(); m == nil || v < 1 {
					t.Errorf("model/version regressed: %v/%d", m, v)
					return
				}
				u.Readings()
				u.Size()
			}
		}()
	}
	wg.Wait()

	if _, err := u.Retrain(); err != nil {
		t.Fatal(err)
	}
	m, v := u.Model()
	if m == nil || v < 2 {
		t.Fatalf("final model/version = %v/%d", m, v)
	}
	if u.Size() != 200+2*20*5 {
		t.Fatalf("store size = %d, want %d", u.Size(), 200+2*20*5)
	}
}

// TestRetrainSingleFlight pins the latch semantics deterministically: a
// Retrain entered while another is in flight coalesces — it returns the
// in-flight result and bumps the version once, not twice.
func TestRetrainSingleFlight(t *testing.T) {
	readings, _ := synthReadings(300, 25)
	u, err := NewUpdater(UpdaterConfig{Constructor: ConstructorConfig{ClusterK: 2, Classifier: KindNB}})
	if err != nil {
		t.Fatal(err)
	}
	u.Bootstrap(readings)

	const waiters = 4
	var wg sync.WaitGroup
	models := make([]*Model, waiters)
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m, err := u.Retrain()
			if err != nil {
				t.Error(err)
				return
			}
			models[g] = m
		}(g)
	}
	wg.Wait()
	_, v := u.Model()
	// Version moved at least once; with perfect overlap exactly once.
	// It can never exceed the number of Retrain calls.
	if v < 1 || v > waiters {
		t.Fatalf("version = %d after %d concurrent retrains", v, waiters)
	}
	for g, m := range models {
		if m == nil {
			t.Fatalf("waiter %d got nil model", g)
		}
	}
}

func TestSubmitScopePinnedOnEmptyStore(t *testing.T) {
	readings, _ := synthReadings(10, 27) // channel 47, RTL-SDR
	u, err := NewUpdater(UpdaterConfig{
		Constructor: ConstructorConfig{ClusterK: 1},
		Channel:     39,
		Sensor:      readings[0].Sensor,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Store is empty, but the configured scope (ch39) disagrees with the
	// batch (ch47): without the pin this first upload would silently
	// define the store identity.
	if err := u.Submit(UploadBatch{Readings: readings, CISpanDB: 0.1}); err == nil {
		t.Fatal("scope-mismatched first upload must be rejected")
	}
	if u.Size() != 0 {
		t.Fatalf("store size = %d after rejected upload", u.Size())
	}

	// A matching scope accepts as before.
	u2, err := NewUpdater(UpdaterConfig{
		Constructor: ConstructorConfig{ClusterK: 1},
		Channel:     readings[0].Channel,
		Sensor:      readings[0].Sensor,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := u2.Submit(UploadBatch{Readings: readings, CISpanDB: 0.1}); err != nil {
		t.Fatal(err)
	}
}
