package model

import "kronvalid/internal/rng"

// distinctSampler is one worker's scratch for drawing sorted sets of
// distinct uniform values: the value generator (reseeded per chunk by
// its owner) and two position buffers the bucket sort alternates
// between. It holds no sample cache, so reuse saves allocations only
// and can never move a byte. gnm's chunks and chunglu's segments both
// draw through it.
type distinctSampler struct {
	s   rng.Xoshiro256
	pos []int64 // the current round's positions
	tmp []int64 // bucket-scatter target; swapped with pos by each sort
	cnt []int32 // bucket counters
}

// sample draws k distinct values from [0, size) by s.Int64n(size) and
// returns them sorted ascending, in a buffer the next call reuses.
// Callers guarantee 2k <= size.
//
// Each round draws the missing count, sorts, and drops duplicates. This
// keeps exactly the set sequential rejection keeps — the first k
// distinct values of the draw stream — and consumes exactly its draws:
// a round that ends at k drew only its deficit, so every draw of the
// last round was new, the last one the k-th new value, where rejection
// stops too. In the common regime k ≪ size the first round already has
// no collisions; otherwise the coin-flip-or-better acceptance rate
// shrinks the rounds geometrically.
func (d *distinctSampler) sample(size, k int64) []int64 {
	if k <= 0 {
		return nil
	}
	if int64(cap(d.pos)) < k {
		d.pos = make([]int64, 0, k)
		d.tmp = make([]int64, 0, k)
	}
	pos := d.pos[:0]
	for {
		for int64(len(pos)) < k {
			pos = append(pos, d.s.Int64n(size))
		}
		pos = d.sort(pos, size-1)
		w := 1
		for i := 1; i < len(pos); i++ {
			if pos[i] != pos[i-1] {
				pos[w] = pos[i]
				w++
			}
		}
		pos = pos[:w]
		if int64(w) == k {
			return pos
		}
	}
}

// sort sorts pos, a prefix of d.pos, ascending and returns the sorted
// slice, which is the new d.pos. The values are uniform draws from
// [0, max], so one counting-sort pass over power-of-two buckets keyed by
// the value's top bits — between n and 2n of them, so the counters take
// fewer bytes than the positions — leaves at most one value a bucket on
// average, and a single insertion pass finishes in linear expected time
// at every n. The scatter goes into d.tmp and the buffers swap roles, so
// nothing is copied back.
func (d *distinctSampler) sort(pos []int64, max int64) []int64 {
	n := len(pos)
	if n >= 16 && max > 0 {
		nb := 16
		for nb < n {
			nb <<= 1
		}
		shift := uint(0)
		for max>>shift >= int64(nb) {
			shift++
		}
		if cap(d.cnt) < nb {
			d.cnt = make([]int32, nb)
		}
		cnt := d.cnt[:nb]
		clear(cnt)
		for _, v := range pos {
			cnt[v>>shift]++
		}
		sum := int32(0)
		for i, c := range cnt {
			cnt[i] = sum
			sum += c
		}
		tmp := d.tmp[:n]
		for _, v := range pos {
			b := v >> shift
			tmp[cnt[b]] = v
			cnt[b]++
		}
		d.pos, d.tmp = d.tmp, d.pos
		pos = tmp
	}
	for i := 1; i < n; i++ {
		v := pos[i]
		j := i - 1
		for j >= 0 && pos[j] > v {
			pos[j+1] = pos[j]
			j--
		}
		pos[j+1] = v
	}
	return pos
}
