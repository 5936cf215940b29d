package sim

import (
	"testing"

	"peerwindow/internal/des"
	"peerwindow/internal/xrand"
)

// A heapified death heap must pop in exactly the order one built by
// pushes does, time ties included: the population build heapifies, the
// churn path pushes.
func TestDeathHeapHeapifyMatchesPushes(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{0, 1, 2, 7, 1000} {
		var pushed, bulk deathHeap
		for _, slot := range rng.Perm(n) {
			// Few distinct times, so ties are broken by slot.
			e := deathEntry{at: des.Time(rng.Intn(5)), slot: int32(slot)}
			pushed.push(e)
			bulk = append(bulk, e)
		}
		bulk.heapify()
		for i := 0; i < n; i++ {
			if a, b := pushed.pop(), bulk.pop(); a != b {
				t.Fatalf("n=%d: pop %d: pushed heap gives %+v, heapified %+v", n, i, a, b)
			}
		}
		if len(bulk) != 0 {
			t.Fatalf("n=%d: %d entries left", n, len(bulk))
		}
	}
}
