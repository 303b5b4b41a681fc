package gio

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"strconv"

	"kronvalid/internal/stream"
)

// maxArcLine is the longest "u\tv\n" line: two 20-byte int64 renderings
// ("-9223372036854775808"), a tab and a newline. The general path's
// block stores — the 24-byte prefix, eight digits at a time — also end
// within this many bytes of a line's start.
const maxArcLine = 42

// lineWindow is how many bytes past a line's start the inline path
// addresses. It sees the line as a [lineWindow]byte and masks every
// index into it, so its stores carry no bounds checks; reserving
// maxArcLine per arc plus lineWindow-maxArcLine once covers the window
// of every line of a batch.
const lineWindow = 64

// digitQuad[i] is the four-digit zero-padded decimal rendering of
// i < 10⁴ as ASCII, most significant digit in the low byte — the order a
// little-endian store writes it.
var digitQuad = func() (t [1e4]uint32) {
	for i := range t {
		for d, x := 0, i; d < 4; d, x = d+1, x/10 {
			t[i] |= uint32('0'+x%10) << (8 * (3 - d))
		}
	}
	return t
}()

// digitsTrim[i] is i < 10⁴ rendered without leading zeros: its ASCII
// digits in the low 32 bits, first digit in the low byte, and their
// count above them. One load replaces the arithmetic that trims a
// digitQuad entry.
var digitsTrim = func() (t [1e4]uint64) {
	for i, x := range digitQuad {
		zeros := bits.TrailingZeros32((x^0x30303030)|1<<24) / 8 // leading '0's; the last digit stays
		t[i] = uint64(x>>(8*zeros)) | uint64(4-zeros)<<32
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
// reserves the batch's worst case once, growing dst the way append does,
// and renders straight into it. Targets in [0, 10⁸) — every id of a
// product under 10⁸ vertices — take an inline path with no call; a new
// source or any other target takes the general one.
func appendArcsTSV(dst []byte, batch []stream.Arc, run *tsvRun) []byte {
	n := len(dst)
	b := slices.Grow(dst, len(batch)*maxArcLine+lineWindow-maxArcLine)
	b = b[:cap(b)]
	// The state lives in locals while the loop runs: the inline path's
	// stores into b cannot then alias it.
	prefix, pn, u := run.prefix, run.n, run.u
	for i := 0; i < len(batch); {
		if a := batch[i]; a.U != u || pn == 0 {
			u = a.U
			pn = putInt(prefix[:], 0, u)
			prefix[pn] = '\t'
			pn++
		}
		if v := batch[i].V; uint64(v) >= 1e8 { // v ≥ 10⁸ or negative
			*(*[24]byte)(b[n:]) = prefix
			n = putInt(b, n+pn, v)
			b[n] = '\n'
			n++
			i++
			continue
		}
		// The inline path, for as long as the source stays u and the
		// target in [0, 10⁸). It makes no call, so nothing it keeps live
		// has to be saved around one. pn ≤ 21, so masking it with 31
		// changes nothing but lets the compiler see every store inside
		// the window.
		for ; i < len(batch); i++ {
			a := batch[i]
			v := uint64(a.V)
			if a.U != u || v >= 1e8 {
				break
			}
			line := (*[lineWindow]byte)(b[n:])
			*(*[24]byte)(line[:]) = prefix
			k := pn & 31
			if v < 1e4 {
				x := digitsTrim[v]
				binary.LittleEndian.PutUint32(line[k:], uint32(x))
				k += int(x >> 32)
			} else {
				// The high digits trimmed, then the low four padded.
				h := uint32(v) / 1e4
				x, lo := digitsTrim[h], digitQuad[uint32(v)-h*1e4]
				m := int(x >> 32)
				binary.LittleEndian.PutUint64(line[k:], uint64(uint32(x))|uint64(lo)<<(8*m&63))
				k += m + 4
			}
			line[k&(lineWindow-1)] = '\n'
			n += k + 1
		}
	}
	run.prefix, run.n, run.u = prefix, pn, u
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
// ASCII, most significant digit in the low byte.
func digits8(v uint32) uint64 {
	return uint64(digitQuad[v/1e4]) | uint64(digitQuad[v%1e4])<<32
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
