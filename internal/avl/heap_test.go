package avl

import (
	"math/rand"
	"testing"

	"ftsched/internal/kernel"
)

// TestHeapPopsWhatTheTreePops drives kernel.PriorityList and the AVL
// FreeList through the same random interleavings of Push and Pop — repeated
// priorities, ties zero as often as not, distinct IDs as the schedulers push
// them — and requires the same item from every Pop: the heap is the paper's
// list α under another representation.
func TestHeapPopsWhatTheTreePops(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 300; round++ {
		var heap kernel.PriorityList
		tree := NewFreeList()
		pop := func() {
			e, _ := tree.PopHead()
			got, ok := heap.Pop()
			want := kernel.Item{ID: e.ID, Priority: e.Priority, Tie: e.Tie}
			if !ok || got != want {
				t.Fatalf("round %d: heap popped %+v (ok=%v), tree %+v", round, got, ok, want)
			}
		}
		for id := 0; id < 100; id++ {
			for tree.Len() > 0 && rng.Intn(3) == 0 {
				pop()
			}
			e := Entry{ID: id, Priority: float64(rng.Intn(4))}
			if rng.Intn(2) == 0 {
				e.Tie = uint64(rng.Intn(3))
			}
			tree.Push(e)
			heap.Push(kernel.Item{ID: e.ID, Priority: e.Priority, Tie: e.Tie})
		}
		for tree.Len() > 0 {
			pop()
		}
		if heap.Len() != 0 {
			t.Fatalf("round %d: tree drained, heap holds %d", round, heap.Len())
		}
	}
}
