package model

import (
	"fmt"
	"slices"
	"testing"

	"kronvalid/internal/rng"
)

// int64Set is a linear-probing hash set of non-negative int64 keys with
// a capacity fixed at construction — the duplicate filter of the
// retained rejection sampler. Slots store key+1 so the zero value means
// empty; sizing to twice the capacity keeps the load factor ≤ 1/2.
type int64Set struct {
	slots []uint64
	mask  uint64
	n     int64
}

// newInt64Set returns a set sized for up to max insertions.
func newInt64Set(max int64) *int64Set {
	size := uint64(4)
	for size < 2*uint64(max) {
		size <<= 1
	}
	return &int64Set{slots: make([]uint64, size), mask: size - 1}
}

// insert adds v (≥ 0) and reports whether it was absent.
func (s *int64Set) insert(v int64) bool {
	k := uint64(v) + 1
	i := rng.Mix64(k) & s.mask
	for {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			s.n++
			return true
		case k:
			return false
		}
		i = (i + 1) & s.mask
	}
}

// sampleDistinct is gnm's former sparse sampler, retained as the oracle
// of TestSampleDistinctMatchesRejection: k distinct values from
// [base, base+size) by sequential rejection — each draw kept unless a
// hash set has seen it — then radix-sorted.
func sampleDistinct(s *rng.Xoshiro256, base, size, k int64) []int64 {
	seen := newInt64Set(k)
	out := make([]int64, 0, k)
	for int64(len(out)) < k {
		v := base + s.Int64n(size)
		if !seen.insert(v) {
			continue
		}
		out = append(out, v)
	}
	radixSortInt64(out, base+size-1)
	return out
}

// radixSortInt64 sorts non-negative int64s ascending by 11-bit digits,
// skipping the digits max says are zero.
func radixSortInt64(a []int64, max int64) {
	if len(a) < 128 {
		slices.Sort(a)
		return
	}
	const digitBits = 11
	const buckets = 1 << digitBits
	src, dst := a, make([]int64, len(a))
	var count [buckets]int32
	for shift := uint(0); max>>shift != 0; shift += digitBits {
		clear(count[:])
		for _, v := range src {
			count[uint64(v)>>shift&(buckets-1)]++
		}
		var sum int32
		for i := range count {
			sum, count[i] = sum+count[i], sum
		}
		for _, v := range src {
			d := uint64(v) >> shift & (buckets - 1)
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// TestSampleDistinctMatchesRejection checks the sort-and-dedup rounds
// against sequential rejection on the same stream: the same sorted set
// and the same number of draws consumed (the next word agrees), for
// k = 0, 1 and size/2 and for random sparse and dense (size, k). One
// sampler serves every case, so buffer reuse across sizes is covered.
func TestSampleDistinctMatchesRejection(t *testing.T) {
	var d distinctSampler
	check := func(seed uint64, size, k int64) {
		t.Helper()
		ref := rng.New(seed)
		want := sampleDistinct(ref, 0, size, k)
		d.s = *rng.New(seed)
		got := d.sample(size, k)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d, size %d, k %d: sort-and-dedup set differs from rejection's", seed, size, k)
		}
		if a, b := d.s.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("seed %d, size %d, k %d: the two samplers consumed different draw counts", seed, size, k)
		}
	}
	for seed := uint64(1); seed <= 5; seed++ {
		for _, size := range []int64{2, 3, 17, 100, 1000, 1 << 20} {
			for _, k := range []int64{0, 1, size / 2} {
				check(seed, size, k)
			}
		}
	}
	pick := rng.New(99)
	for i := 0; i < 300; i++ {
		size := 2 + pick.Int64n(1<<uint(1+pick.Intn(20)))
		k := pick.Int64n(size/2 + 1) // dense: up to size/2
		if i%2 == 0 {
			k = pick.Int64n(size/64 + 1) // sparse
		}
		check(uint64(1000+i), size, k)
	}
}

// BenchmarkSampleDistinct reports ns per sampled value over three
// orders of magnitude of k (at a fixed 1/16 density): the bucket count
// scales with k, so the cost per value stays flat instead of turning
// quadratic per bucket once k outgrows a fixed bucket table.
func BenchmarkSampleDistinct(b *testing.B) {
	for _, lk := range []int{10, 17, 22} {
		k := int64(1) << lk
		b.Run(fmt.Sprintf("k=2^%d", lk), func(b *testing.B) {
			var d distinctSampler
			d.s = *rng.New(1)
			for i := 0; i < b.N; i++ {
				d.sample(16*k, k)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/value")
		})
	}
}
