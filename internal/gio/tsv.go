package gio

import (
	"encoding/binary"
	"math/bits"
	"strconv"

	"kronvalid/internal/stream"
)

// maxArcLine is the longest "u\tv\n" line: two 20-byte int64 renderings
// ("-9223372036854775808"), a tab and a newline. The kernel's block
// stores — the 24-byte prefix, eight digits at a time — also end within
// this many bytes of a line's start, so reserving it per arc covers them.
const maxArcLine = 42

// digitPair[i] is the two-digit decimal rendering of i < 100, tens digit
// in the low byte — the order a little-endian store writes it.
var digitPair = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// tsvRun is the kernel's state between calls: the "u\t" prefix of the
// most recent source id. The canonical stream is sorted by source, so a
// prefix is rendered once per run of equal u and copied thereafter; the
// owner keeps it across batches because runs straddle batch boundaries.
type tsvRun struct {
	u      int64
	prefix [24]byte // "u\t" in prefix[:n], at most 21 bytes
	n      int      // 0 until the first arc
}

// appendArcsTSV appends one "u\tv\n" line per arc to dst — the bytes
// strconv.AppendInt would produce — and returns the extended slice. It
// reserves the batch's worst case once and renders straight into it.
func appendArcsTSV(dst []byte, batch []stream.Arc, run *tsvRun) []byte {
	n := len(dst)
	if need := n + len(batch)*maxArcLine; cap(dst) < need {
		grown := make([]byte, n, need)
		copy(grown, dst)
		dst = grown
	}
	b := dst[:cap(dst)]
	for _, a := range batch {
		if a.U != run.u || run.n == 0 {
			run.u = a.U
			run.n = putInt(run.prefix[:], 0, a.U)
			run.prefix[run.n] = '\t'
			run.n++
		}
		*(*[24]byte)(b[n:]) = run.prefix
		n = putInt(b, n+run.n, a.V)
		b[n] = '\n'
		n++
	}
	return b[:n]
}

// putInt renders v in decimal at b[n:] and returns the index after its
// last digit. b must have 20 writable bytes at n whatever v is: digits
// go down in eight-byte stores.
func putInt(b []byte, n int, v int64) int {
	if v < 0 {
		return len(strconv.AppendInt(b[:n], v, 10))
	}
	if v < 1e8 {
		return putUint32(b, n, uint32(v))
	}
	// Above 10⁸: peel eight-digit groups so every division is 32-bit.
	hi, lo := uint64(v)/1e8, uint32(uint64(v)%1e8)
	if hi < 1e8 {
		n = putUint32(b, n, uint32(hi))
	} else {
		n = putUint32(b, n, uint32(hi/1e8))
		n = put8Digits(b, n, uint32(hi%1e8))
	}
	return put8Digits(b, n, lo)
}

// digits8 returns the eight zero-padded decimal digits of v < 10⁸ as
// ASCII, most significant digit in the low byte. The four table lookups
// are independent of each other, unlike a divide-by-100 loop.
func digits8(v uint32) uint64 {
	hi, lo := v/1e4, v%1e4
	return uint64(digitPair[hi/100]) | uint64(digitPair[hi%100])<<16 |
		uint64(digitPair[lo/100])<<32 | uint64(digitPair[lo%100])<<48
}

// putUint32 renders v < 10⁸ at b[n:] without leading zeros: all eight
// digits are stored, shifted down past the leading '0' bytes (the last
// digit always stays), so b needs eight writable bytes whatever v is.
func putUint32(b []byte, n int, v uint32) int {
	x := digits8(v)
	zeros := bits.TrailingZeros64((x^0x3030303030303030)|1<<56) &^ 7
	binary.LittleEndian.PutUint64(b[n:], x>>zeros)
	return n + 8 - zeros/8
}

// put8Digits renders v < 10⁸ at b[n:n+8], zero-padded.
func put8Digits(b []byte, n int, v uint32) int {
	binary.LittleEndian.PutUint64(b[n:], digits8(v))
	return n + 8
}
