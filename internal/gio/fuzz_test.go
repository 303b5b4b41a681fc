package gio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"kronvalid/internal/stream"
)

// arcsFromData decodes fuzz bytes into an arc list (16 bytes per arc,
// truncated tail dropped).
func arcsFromData(data []byte) []stream.Arc {
	n := len(data) / 16
	if n > 1<<12 {
		n = 1 << 12
	}
	arcs := make([]stream.Arc, n)
	for i := range arcs {
		arcs[i] = stream.Arc{
			U: int64(binary.LittleEndian.Uint64(data[i*16:])),
			V: int64(binary.LittleEndian.Uint64(data[i*16+8:])),
		}
	}
	return arcs
}

// FuzzArcsRoundTrip drives arbitrary arc lists through both serializers
// and their readers: whatever the writer emits, the reader must
// reproduce exactly.
func FuzzArcsRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0}, 16))
	f.Add(bytes.Repeat([]byte{0xff}, 48))
	seed := make([]byte, 32)
	binary.LittleEndian.PutUint64(seed[0:], 3)
	binary.LittleEndian.PutUint64(seed[8:], 5)
	binary.LittleEndian.PutUint64(seed[16:], 1<<40)
	binary.LittleEndian.PutUint64(seed[24:], uint64(1<<63)) // negative id
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		arcs := arcsFromData(data)

		var text bytes.Buffer
		tw := NewArcTextWriter(&text)
		if err := tw.Consume(arcs); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadArcsText(&text)
		if err != nil {
			t.Fatalf("text round trip failed to parse: %v", err)
		}
		if len(back) != len(arcs) {
			t.Fatalf("text round trip: %d arcs, want %d", len(back), len(arcs))
		}
		for i := range arcs {
			if back[i] != arcs[i] {
				t.Fatalf("text round trip: arc %d = %v, want %v", i, back[i], arcs[i])
			}
		}

		var bin bytes.Buffer
		bw := NewArcBinaryWriter(&bin)
		if err := bw.Consume(arcs); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err = ReadArcsBinary(&bin)
		if err != nil {
			t.Fatalf("binary round trip failed to parse: %v", err)
		}
		if len(back) != len(arcs) {
			t.Fatalf("binary round trip: %d arcs, want %d", len(back), len(arcs))
		}
		for i := range arcs {
			if back[i] != arcs[i] {
				t.Fatalf("binary round trip: arc %d = %v, want %v", i, back[i], arcs[i])
			}
		}
	})
}

// FuzzReadArcsBinary feeds arbitrary bytes to the binary reader: it must
// either parse cleanly (input length a multiple of 16) or reject, never
// panic, and on success re-serializing must reproduce the input.
func FuzzReadArcsBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(bytes.Repeat([]byte{7}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		arcs, err := ReadArcsBinary(bytes.NewReader(data))
		if len(data)%16 != 0 {
			if err == nil {
				t.Fatalf("partial trailing record accepted (%d bytes)", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("aligned input rejected: %v", err)
		}
		var out bytes.Buffer
		w := NewArcBinaryWriter(&out)
		if err := w.Consume(arcs); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("re-serialization differs from input")
		}
	})
}

// FuzzReadArcsText feeds arbitrary text to the text reader: parse or
// reject, never panic; on success re-serializing and re-parsing is a
// fixed point.
func FuzzReadArcsText(f *testing.F) {
	f.Add("")
	f.Add("1\t2\n")
	f.Add("# c\n-9\t9\n")
	f.Add("x y\n")
	f.Fuzz(func(t *testing.T, in string) {
		arcs, err := ReadArcsText(bytes.NewReader([]byte(in)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w := NewArcTextWriter(&out)
		if err := w.Consume(arcs); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadArcsText(&out)
		if err != nil {
			t.Fatalf("canonical form failed to re-parse: %v", err)
		}
		if len(again) != len(arcs) {
			t.Fatalf("re-parse: %d arcs, want %d", len(again), len(arcs))
		}
		for i := range arcs {
			if again[i] != arcs[i] {
				t.Fatalf("re-parse: arc %d = %v, want %v", i, again[i], arcs[i])
			}
		}
	})
}
