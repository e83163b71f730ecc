package ops

import (
	"math"
	"math/bits"
	"slices"
	"unsafe"
)

// selectK reorders s so that s[k] holds the element sort.Float64s would
// put there, no element before k orders after it and none after k orders
// before it. For k ≥ 1 it returns the element a sort would put at k−1,
// the largest of s[:k] in that order; for k = 0 it returns 0.
//
// The order is sort.Float64s's, NaNs first, then <, so the selected
// value is the sorted one bit for bit, except where sorting leaves a tie
// open: −0 orders before +0 (key), and the NaNs keep the order they
// came in. The numbers are selected as int64 keys whose signed order is
// that order, held in s's own memory, so the partition compares
// integers without a branch and nothing is allocated. s holds its own
// values again on return.
func selectK(s []float64, k int) (below float64) {
	keys := unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
	// One forward pass moves the NaNs to the front and maps every other
	// value to its key.
	nan := 0
	for i, x := range keys {
		if x&math.MaxInt64 > inf {
			keys[i], keys[nan] = keys[nan], x
			nan++
			continue
		}
		keys[i] = key(x)
	}
	if k >= nan {
		selectKeys(keys[nan:], k-nan)
	}
	// One pass maps the keys back to values, taking the largest key
	// before k on the way.
	lower, upper := keys[nan:max(k, nan)], keys[max(k, nan):]
	if len(lower) > 0 {
		m := lower[0]
		for i, x := range lower {
			m = max(m, x)
			lower[i] = key(x)
		}
		below = math.Float64frombits(uint64(key(m)))
	} else if k > 0 {
		below = s[k-1]
	}
	for i, x := range upper {
		upper[i] = key(x)
	}
	return below
}

// inf is +Inf's bits. A float64 is NaN exactly when its bits with the
// sign cleared exceed these.
const inf = 0x7ff0000000000000

// key maps a float64's bits, read as an int64, to an int64 whose signed
// order is the float order, −0 just before +0: a negative value's bits
// other than the sign are inverted, so a larger magnitude orders lower.
// The map keeps the sign bit, so it is its own inverse.
func key(x int64) int64 {
	return x ^ int64(uint64(x>>63)>>1)
}

// selectKeys puts at keys[k] the key a sort would put there, smaller
// keys before it and larger ones after. It is a quickselect around a
// median-of-three pivot p, taken with min and max: a Lomuto pass
// (partition) moves the keys < p to the front and, when k lies past
// them, a second pass gathers the keys = p after them; only the side
// holding k is kept. A run of pivots bad enough to make it quadratic
// ends in a sort of the range still open; the last ≤ 9 keys are sorted
// by insertion.
func selectKeys(keys []int64, k int) {
	lo, hi := 0, len(keys)
	for budget := 2 * bits.Len(uint(len(keys))); hi-lo > 9; budget-- {
		if budget == 0 {
			slices.Sort(keys[lo:hi])
			return
		}
		m := lo + (hi-lo)/2
		a, b, c := keys[lo], keys[m], keys[hi-1]
		x, y := min(a, b), max(a, b)
		p := max(x, min(y, c))
		keys[lo], keys[m], keys[hi-1] = min(x, c), p, max(y, c)
		less := lo + partition(keys[lo:hi], func(t int64) int { return b2i(t < p) })
		if k < less {
			hi = less
			continue
		}
		// p itself lies in keys[less:hi], so the gather keeps at least one
		// key and the range shrinks.
		equal := less + partition(keys[less:hi], func(t int64) int { return b2i(t == p) })
		if k < equal {
			return
		}
		lo = equal
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}
