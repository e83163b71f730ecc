package sidx

import (
	"bytes"
	"errors"
	"testing"

	"sidr/internal/coords"
	"sidr/internal/mapreduce"
)

// FuzzReadIndex drives the codec with arbitrary bytes. Read must never
// panic, and any index it accepts must re-encode to a decode fixed
// point: encode(decode(encode(ix))) == encode(ix) byte for byte. The
// comparison is between encodings, not structs, so NaN min/max values
// (which compare unequal to themselves) cannot produce false alarms.
func FuzzReadIndex(f *testing.F) {
	vi, err := BuildVar("temp", coords.NewShape(48, 4),
		&mapreduce.FuncReader{Fn: func(k coords.Coord) float64 { return float64(k[0]*10 + k[1]) }},
		BuildOptions{Blocks: 6})
	if err != nil {
		f.Fatalf("BuildVar: %v", err)
	}
	var good bytes.Buffer
	if err := writeIndex(&good, &Index{Vars: []*VarIndex{vi}}); err != nil {
		f.Fatalf("Write: %v", err)
	}
	f.Add(good.Bytes())
	var empty bytes.Buffer
	if err := writeIndex(&empty, &Index{}); err != nil {
		f.Fatalf("Write empty: %v", err)
	}
	f.Add(empty.Bytes())

	truncated := good.Bytes()[:good.Len()-5]
	f.Add(append([]byte(nil), truncated...))
	corrupt := append([]byte(nil), good.Bytes()...)
	corrupt[indexHeaderLen+1] ^= 0x40
	f.Add(corrupt)
	f.Add([]byte("SIDX"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := readIndex(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		var first bytes.Buffer
		if err := writeIndex(&first, ix); err != nil {
			t.Fatalf("re-encoding accepted index: %v", err)
		}
		back, err := readIndex(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		var second bytes.Buffer
		if err := writeIndex(&second, back); err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("encode∘decode is not a fixed point")
		}
	})
}

// FuzzReadIndex above covers arbitrary corruption; this regression
// pins the specific guarantee pruning relies on — a bit flip anywhere
// in a valid payload is rejected with errChecksum, never silently
// decoded into wrong statistics.
func FuzzIndexCRC(f *testing.F) {
	vi, err := BuildVar("t", coords.NewShape(16, 2),
		&mapreduce.FuncReader{Fn: func(k coords.Coord) float64 { return float64(k[0]) }},
		BuildOptions{Blocks: 4})
	if err != nil {
		f.Fatalf("BuildVar: %v", err)
	}
	var good bytes.Buffer
	if err := writeIndex(&good, &Index{Vars: []*VarIndex{vi}}); err != nil {
		f.Fatalf("Write: %v", err)
	}
	payloadLen := good.Len() - indexHeaderLen
	f.Add(0, uint8(1))
	f.Add(payloadLen-1, uint8(0x80))
	f.Fuzz(func(t *testing.T, off int, mask uint8) {
		if off < 0 || off >= payloadLen || mask == 0 {
			return
		}
		mutated := append([]byte(nil), good.Bytes()...)
		mutated[indexHeaderLen+off] ^= mask
		if _, err := readIndex(bytes.NewReader(mutated)); !errors.Is(err, errChecksum) {
			t.Fatalf("payload flip at %d (mask %02x): got %v, want errChecksum", off, mask, err)
		}
	})
}
