// Package baseline implements the comparison algorithms of Sec. VII-B.
//
// TARO (Traffic-Aware Resource Orchestration) shares every resource
// proportionally to current queue lengths: x_ij = Rtot_j · l_ij / Σ_i l_ij.
// EdgeSlice-NT is not here — it is the same DRL agent as EdgeSlice with the
// queue part of the state removed, selected via netsim.Config.ObserveQueue.
package baseline

import "fmt"

// TARO computes the traffic-aware proportional allocation for one RA: the
// returned action vector has the netsim layout (slice-major, one share per
// resource) with x_i = l_i/Σl for every resource domain.
func TARO(queueLens []int, numResources int) ([]float64, error) {
	if numResources <= 0 {
		return nil, fmt.Errorf("baseline: numResources %d must be positive", numResources)
	}
	out := make([]float64, len(queueLens)*numResources)
	if err := TAROInto(out, queueLens); err != nil {
		return nil, err
	}
	return out, nil
}

// TAROInto is TARO writing into dst, whose length — a positive multiple of
// len(queueLens) — fixes the number of resource domains.
//
//edgeslice:noalloc
func TAROInto(dst []float64, queueLens []int) error {
	n := len(queueLens)
	if n == 0 {
		//edgeslice:allocok cold error path
		return fmt.Errorf("baseline: no queues")
	}
	if len(dst) == 0 || len(dst)%n != 0 {
		//edgeslice:allocok cold error path
		return fmt.Errorf("baseline: action length %d is not a positive multiple of %d queues", len(dst), n)
	}
	numResources := len(dst) / n
	var total int
	for _, l := range queueLens {
		if l < 0 {
			//edgeslice:allocok cold error path
			return fmt.Errorf("baseline: negative queue length %d", l)
		}
		total += l
	}
	for i, l := range queueLens {
		share := 1 / float64(n) // idle system: equal split
		if total > 0 {
			share = float64(l) / float64(total)
		}
		for k := 0; k < numResources; k++ {
			dst[i*numResources+k] = share
		}
	}
	return nil
}

// EqualShare splits every resource evenly across slices, a static
// provisioning reference point used in ablations.
func EqualShare(numSlices, numResources int) ([]float64, error) {
	if numSlices <= 0 || numResources <= 0 {
		return nil, fmt.Errorf("baseline: invalid dims %d/%d", numSlices, numResources)
	}
	out := make([]float64, numSlices*numResources)
	EqualShareInto(out, numSlices)
	return out, nil
}

// EqualShareInto is EqualShare writing into dst (every entry becomes
// 1/numSlices).
//
//edgeslice:noalloc
func EqualShareInto(dst []float64, numSlices int) {
	for i := range dst {
		dst[i] = 1 / float64(numSlices)
	}
}
