package model

import (
	"kronvalid/internal/par"
	"kronvalid/internal/rng"
)

// splitTree divides an integer total across a fixed sequence of slots
// by recursive binomial splitting — the Sample-phase primitive behind
// every exact-count partition in this package (G(n,m) edge budgets, RGG
// cell occupancies). The node covering slots [lo, hi) assigns its left
// half Binomial(total_node, w_left/w_node) items, drawn by
// rng.BinomialFixed from a stream derived purely from (seed, ns,
// lo<<32|hi), so every worker recomputes any slot's exact share — in
// O(log slots) draws — with no communication, the shares follow the
// multinomial law conditioned on the total (each trial at the 2^-53
// grid probability the fixed-point threshold encodes; DESIGN.md §2e),
// and they sum to the total exactly.
//
// When capacitated is set, slot weights are also capacities (G(n,m):
// a slot cannot hold more edges than it has pairs) and each split is
// clamped into its feasible range; for uncapacitated trees (RGG: a
// cell holds any number of points) the weights are proportions only.
type splitTree struct {
	seed  uint64
	ns    uint64
	slots int
	total int64
	// weight returns the combined weight of slots [lo, hi). It must be
	// exactly additive: weight(lo, hi) == weight(lo, mid) + weight(mid, hi).
	weight      func(lo, hi int) int64
	capacitated bool
}

// splitMemo caches per-node left shares across many descents of the
// same tree. A node's incoming total m is itself a pure function of the
// node, so caching by node id alone is sound. Create one per chunk
// generation (it is not safe for concurrent use); a nil memo disables
// caching.
type splitMemo map[uint64]int64

// leftShare draws the left half's share of m items at the node covering
// [lo, hi) split at mid. It is a pure function of (seed, ns, lo, hi, m).
func (t *splitTree) leftShare(lo, mid, hi int, m int64, memo splitMemo) int64 {
	node := uint64(lo)<<32 | uint64(hi)
	if v, ok := memo[node]; ok {
		return v
	}
	mLeft := int64(0)
	// m == 0 short-circuits without touching the node's stream: the
	// binomial draw would return 0 without consuming anything, and node
	// streams are independent, so skipping the stream setup changes no
	// value anywhere.
	if total := t.weight(lo, hi); total > 0 && m > 0 {
		left := t.weight(lo, mid)
		s := rng.NewStream2(t.seed, t.ns, node)
		p := float64(left) / float64(total)
		mLeft = s.BinomialFixed(m, p, rng.FixedThreshold(p))
		if t.capacitated {
			// Clamp to the feasible range [m - w_right, w_left]: the binomial
			// approximation of the hypergeometric split can otherwise assign a
			// side more items than it has capacity (e.g. near-complete
			// graphs). Both ends stay in range because m <= total.
			if right := total - left; mLeft < m-right {
				mLeft = m - right
			}
			if mLeft > left {
				mLeft = left
			}
		}
	}
	if memo != nil {
		memo[node] = mLeft
	}
	return mLeft
}

// count returns slot c's exact item count by descending from the root:
// O(log slots) binomial draws, each from a stream derived purely from
// (seed, node), so every caller computes the same value.
func (t *splitTree) count(c int) int64 { return t.countMemo(c, nil) }

func (t *splitTree) countMemo(c int, memo splitMemo) int64 {
	lo, hi := 0, t.slots
	m := t.total
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		mLeft := t.leftShare(lo, mid, hi, m, memo)
		if c < mid {
			hi, m = mid, mLeft
		} else {
			lo, m = mid, m-mLeft
		}
	}
	return m
}

// prefix returns the total item count of slots [0, c) — the id-space
// offset of slot c — by one root descent accumulating the left shares
// it passes: O(log slots) draws, identical across callers.
func (t *splitTree) prefix(c int) int64 { return t.prefixMemo(c, nil) }

// expandPrefix materializes the whole tree and returns the prefix-sum
// table P of length slots+1 — P[c] is the item count of slots [0, c),
// so slot c holds P[c+1]-P[c] items — and the occupancy bitmap paired
// with it (bit c set iff slot c is nonempty). Each tree node's left
// share is a pure function of the node id alone, so drawing every node
// exactly once yields the same values as any sequence of count/prefix
// descents — only the evaluation order differs — at O(1) amortized
// draws per slot instead of O(log slots) per query, with no memo map in
// the hot path. Callers gate on slots (8 bytes per slot).
//
// The expansion runs on par.MaxWorkers() goroutines: a serial descent
// draws the nodes above the grain and records the subtrees at it, which
// are then expanded depth-first in any order, each writing only its own
// p[lo:hi). Order cannot move a value because no node reads another's
// stream; see DESIGN.md §2e.
func (t *splitTree) expandPrefix() (p []int64, occ []uint64) {
	p = make([]int64, t.slots+1)
	occ = make([]uint64, (t.slots+63)/64)
	if t.slots == 0 {
		return p, occ
	}
	var subs []subtree
	t.expand(p, 0, t.slots, t.total, expandGrain(t.slots), &subs)
	par.ForDynamic(int64(len(subs)), 1, func(i int64) {
		s := subs[i]
		t.expand(p, s.lo, s.hi, s.m, 0, nil)
	})
	// In place: per-slot counts become the running prefix.
	var acc int64
	for c := 0; c < t.slots; c++ {
		n := p[c]
		if n != 0 {
			occ[c>>6] |= 1 << (uint(c) & 63)
		}
		p[c] = acc
		acc += n
	}
	p[t.slots] = acc
	return p, occ
}

// subtree is one deferred unit of expandPrefix's work: the node
// covering slots [lo, hi) and the m > 0 items it was dealt.
type subtree struct {
	lo, hi int
	m      int64
}

// expandTasksPerWorker is how many subtrees expandPrefix cuts per
// worker. A subtree's cost follows the items it was dealt, which vary
// with the tree's weights and with every uneven halving above it, so
// the cut is much finer than the worker count and the subtrees are
// claimed dynamically. Measured flat from 4 to 256 on the geo-bin
// tables at two workers.
const expandTasksPerWorker = 64

// expandMinGrain is the slot count below which a subtree is not worth
// a task of its own; trees no larger than it expand serially.
const expandMinGrain = 1 << 10

// expandGrain returns the subtree size (in slots) at which expandPrefix
// stops descending serially. With one worker it is the whole tree, so
// the root is the only task.
func expandGrain(slots int) int {
	workers := par.MaxWorkers()
	if workers == 1 {
		return slots
	}
	if g := slots / (expandTasksPerWorker * workers); g > expandMinGrain {
		return g
	}
	return expandMinGrain
}

// expand writes the per-slot counts of the subtree covering [lo, hi),
// which holds m items, into p[lo:hi) depth-first. A subtree of at most
// grain slots is appended to subs instead of being descended (grain 0
// descends everything).
func (t *splitTree) expand(p []int64, lo, hi int, m int64, grain int, subs *[]subtree) {
	if m == 0 {
		// Every slot under this node is empty and p is already
		// zero-initialized; the skipped per-node draws are all
		// Binomial(0, ·) = 0 from independent streams, so pruning
		// the subtree changes no value.
		return
	}
	if hi-lo <= grain {
		*subs = append(*subs, subtree{lo, hi, m})
		return
	}
	if hi-lo == 1 {
		p[lo] = m
		return
	}
	mid := (lo + hi) / 2
	mLeft := t.leftShare(lo, mid, hi, m, nil)
	t.expand(p, lo, mid, mLeft, grain, subs)
	t.expand(p, mid, hi, m-mLeft, grain, subs)
}

func (t *splitTree) prefixMemo(c int, memo splitMemo) int64 {
	if c <= 0 || t.slots == 0 {
		return 0
	}
	if c >= t.slots {
		return t.total
	}
	lo, hi := 0, t.slots
	m := t.total
	var acc int64
	// Invariant: acc counts slots [0, lo) and m counts [lo, hi), with
	// c in (lo, hi]; at hi-lo == 1 that forces c == hi, so acc+m is the
	// count of [0, c).
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		mLeft := t.leftShare(lo, mid, hi, m, memo)
		if c <= mid {
			hi, m = mid, mLeft
		} else {
			acc += mLeft
			lo, m = mid, m-mLeft
		}
	}
	return acc + m
}
