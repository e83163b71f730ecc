package ops

import (
	"math/bits"
	"slices"
)

// selectK reorders s so that s[k] holds the element sort.Float64s would
// put there, no element before k orders after it and none after k orders
// before it. The order is sort.Float64s's — NaNs first, then < — so the
// selected value is the sorted one bit for bit, with one exception that
// neither algorithm specifies: which of −0 and +0 lands where they tie.
func selectK(s []float64, k int) {
	// NaNs go to the front; among the rest the order is plain <.
	nan := 0
	for i, x := range s {
		if x != x {
			s[i], s[nan] = s[nan], x
			nan++
		}
	}
	if k < nan {
		return
	}
	s, k = s[nan:], k-nan
	// Quickselect: a Hoare partition around a median-of-three pivot, then
	// only the side holding k. A run of pivots bad enough to make it
	// quadratic ends in a sort of the range still open.
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); hi-lo > 8; budget-- {
		if budget == 0 {
			slices.Sort(s[lo : hi+1])
			return
		}
		m := lo + (hi-lo)/2
		if s[m] < s[lo] {
			s[m], s[lo] = s[lo], s[m]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[m] {
			s[hi], s[m] = s[m], s[hi]
		}
		p, i, j := s[m], lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for p < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[lo:j+1] ≤ p ≤ s[i:hi+1], and whatever lies between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// maxOrdered returns the element sort.Float64s would leave last in s
// (len(s) ≥ 1): its largest number, or NaN when it holds nothing else.
func maxOrdered(s []float64) float64 {
	m := s[0]
	for _, x := range s[1:] {
		if m < x || m != m {
			m = x
		}
	}
	return m
}
