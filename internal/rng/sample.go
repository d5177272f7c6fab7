package rng

// SampleDistinct draws k distinct ints uniformly from [0, n) in O(k)
// expected time using a partial Fisher-Yates over a sparse map. If k >= n
// it returns a full permutation of [0, n).
func (r *RNG) SampleDistinct(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	if k <= 0 {
		return nil
	}
	swapped := make(map[int]int, k*2)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vi, ok := swapped[i]
		if !ok {
			vi = i
		}
		vj, ok := swapped[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		swapped[j] = vi
		swapped[i] = vj
	}
	return out
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to its weight. Negative weights are treated as zero. If all
// weights are zero it falls back to uniform choice. It panics on an empty
// slice.
func (r *RNG) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: WeightedChoice with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	target := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
