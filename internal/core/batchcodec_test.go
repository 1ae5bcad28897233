package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"github.com/wsdetect/waldo/internal/dataset"
)

func batchReadings(n int) []dataset.Reading {
	rs := make([]dataset.Reading, n)
	for i := range rs {
		rs[i] = codecReading(i)
	}
	return rs
}

func TestBatchFrameRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 256} {
		rs := batchReadings(n)
		frame, err := EncodeBatchFrame(rs)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		if len(frame) != BatchFrameLen(n) {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, len(frame), BatchFrameLen(n))
		}
		got, rest, err := DecodeBatchFrame(nil, frame)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d unconsumed bytes", n, len(rest))
		}
		if !reflect.DeepEqual(got, rs) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestBatchFrameTrailingBytesBelongToCaller(t *testing.T) {
	rs := batchReadings(3)
	frame, err := EncodeBatchFrame(rs)
	if err != nil {
		t.Fatal(err)
	}
	frame = append(frame, 0xDE, 0xAD)
	got, rest, err := DecodeBatchFrame(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !bytes.Equal(rest, []byte{0xDE, 0xAD}) {
		t.Fatalf("got %d readings, rest %x", len(got), rest)
	}
}

// TestBatchFrameDecodeIntoScratch pins the pooled-scratch contract: a
// decode into a slice with enough capacity allocates nothing, and an
// errored decode returns dst unchanged.
func TestBatchFrameDecodeIntoScratch(t *testing.T) {
	rs := batchReadings(32)
	frame, err := EncodeBatchFrame(rs)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]dataset.Reading, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		out, _, err := DecodeBatchFrame(scratch[:0], frame)
		if err != nil || len(out) != 32 {
			t.Fatalf("decode: %v (%d readings)", err, len(out))
		}
	})
	if allocs != 0 {
		t.Errorf("decode into scratch allocates %.1f times/op, want 0", allocs)
	}

	seeded := append(scratch[:0], codecReading(99))
	out, _, err := DecodeBatchFrame(seeded, frame[:len(frame)-1])
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if len(out) != 1 || out[0].Seq != 99 {
		t.Errorf("failed decode mutated dst: %d readings", len(out))
	}
}

// TestBatchFrameTornAtEveryOffset mirrors the WAL torn-write suite: a
// frame cut at any byte boundary must be rejected as truncated, never
// decoded as a shorter valid batch and never panicking.
func TestBatchFrameTornAtEveryOffset(t *testing.T) {
	rs := batchReadings(5)
	frame, err := EncodeBatchFrame(rs)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := DecodeBatchFrame(nil, frame[:cut]); err == nil {
			t.Fatalf("frame torn at byte %d of %d accepted", cut, len(frame))
		}
	}
}

// TestBatchFrameCorruptAtEveryByte flips every byte in turn. The CRC must
// catch any flip in the count or the CRC itself; a flip inside a reading
// is caught by the CRC too (field validation is the second line, the CRC
// the first).
func TestBatchFrameCorruptAtEveryByte(t *testing.T) {
	rs := batchReadings(3)
	frame, err := EncodeBatchFrame(rs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, _, err := DecodeBatchFrame(nil, bad); err == nil {
			t.Fatalf("byte %d flipped and still accepted", i)
		}
	}
}

func TestBatchFrameRejectsDegenerateCounts(t *testing.T) {
	// Zero count.
	zero := binary.LittleEndian.AppendUint32(nil, 0)
	zero = binary.LittleEndian.AppendUint32(zero, 0)
	if _, _, err := DecodeBatchFrame(nil, zero); err == nil {
		t.Error("zero-count frame accepted")
	}

	// Count far beyond the body (a length-prefix attack must not allocate
	// count readings before noticing).
	huge := binary.LittleEndian.AppendUint32(nil, 1<<31)
	huge = append(huge, make([]byte, 128)...)
	if _, _, err := DecodeBatchFrame(nil, huge); err == nil {
		t.Error("oversized count accepted")
	}

	// Count above MaxBatchReadings even with a plausible body length
	// prefix is rejected before any body inspection.
	over := binary.LittleEndian.AppendUint32(nil, MaxBatchReadings+1)
	if _, _, err := DecodeBatchFrame(nil, over); err == nil {
		t.Error("count above MaxBatchReadings accepted")
	}

	// Encoding side enforces the same bounds, and refuses a channel or
	// sensor the record's narrower field would silently truncate.
	wide := batchReadings(2)
	wide[1].Channel = 1<<16 + 47
	if _, err := EncodeBatchFrame(wide); err == nil {
		t.Error("channel 65583 encoded (would decode as 47)")
	}
	wide[1].Channel, wide[1].Sensor = 47, 1<<8+1
	if _, err := EncodeBatchFrame(wide); err == nil {
		t.Error("sensor 257 encoded (would decode as 1)")
	}
	if _, err := EncodeBatchFrame(nil); err == nil {
		t.Error("empty batch encoded")
	}
}

// TestBatchFrameProperty is the randomized sweep: random batches round
// trip exactly; random mutations (truncate, flip, count rewrite) never
// round trip and never panic.
func TestBatchFrameProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(40)
		rs := batchReadings(n)
		frame, err := EncodeBatchFrame(rs)
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := DecodeBatchFrame(nil, frame)
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, rs) {
			t.Fatalf("iter %d: clean round trip failed: %v", iter, err)
		}

		bad := append([]byte(nil), frame...)
		switch rng.Intn(3) {
		case 0:
			bad = bad[:rng.Intn(len(bad))]
		case 1:
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		case 2:
			binary.LittleEndian.PutUint32(bad, uint32(n+1+rng.Intn(100)))
		}
		if bytes.Equal(bad, frame) {
			continue
		}
		if _, _, err := DecodeBatchFrame(nil, bad); err == nil {
			t.Fatalf("iter %d: mutated frame accepted", iter)
		}
	}
}

func FuzzDecodeBatchFrame(f *testing.F) {
	seed, err := EncodeBatchFrame(batchReadings(3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:10])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, frest, ferr := CheckBatchFrame(data)
		rs, rest, err := DecodeBatchFrame(nil, data)
		if ferr != nil && err == nil {
			t.Fatalf("decoded a frame the framing check refuses: %v", ferr)
		}
		if err != nil {
			return
		}
		// The framing check alone — what the gateway routes on — must see
		// the frame the decoder saw.
		if n != len(rs) || len(frest) != len(rest) {
			t.Fatalf("framing check saw %d readings / %d trailing bytes, decoder %d / %d", n, len(frest), len(rs), len(rest))
		}
		// Anything the decoder accepts must re-encode byte-identically
		// (the gateway's split path depends on this).
		consumed := data[:len(data)-len(rest)]
		re, err := EncodeBatchFrame(rs)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, consumed) {
			t.Fatalf("re-encode mismatch: %d vs %d bytes", len(re), len(consumed))
		}
	})
}
