package kernel

import "ftsched/internal/dag"

// Item is one entry of a ready list: a task with its list priority and a
// tie-breaking value (drawn at random by the schedulers, matching the
// paper's "ties are broken randomly"; zero falls back to ordering by ID).
type Item struct {
	ID       int
	Priority float64
	Tie      uint64
}

// above reports whether it leaves the list before o: higher priority first,
// then higher tie, then higher ID. IDs are distinct, so the order is total.
func (it Item) above(o Item) bool {
	if it.Priority != o.Priority {
		return it.Priority > o.Priority
	}
	if it.Tie != o.Tie {
		return it.Tie > o.Tie
	}
	return it.ID > o.ID
}

// PriorityList is the priority list α of Section 4.1, the ready list of FTSA
// and its variants: Pop returns H(α), the highest-priority item, in O(log n).
// The paper keeps α in an AVL tree; this is a binary max-heap in a slice over
// the same total order (Priority, Tie, ID). The order has no equal keys, so
// the maximum of the live set is unique and both structures pop the same
// sequence under any interleaving of Push and Pop — at the same O(log n) per
// operation, without a node allocation per task. The zero value is an empty
// list; Reset empties one for reuse, keeping its storage.
type PriorityList struct {
	heap []Item
}

// Push inserts an item.
func (pl *PriorityList) Push(it Item) {
	h := append(pl.heap, it)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.above(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = it
	pl.heap = h
}

// Pop removes and returns the highest-priority item; ok is false when the
// list is empty.
func (pl *PriorityList) Pop() (top Item, ok bool) {
	n := len(pl.heap) - 1
	if n < 0 {
		return Item{}, false
	}
	top, last := pl.heap[0], pl.heap[n]
	h := pl.heap[:n]
	pl.heap = h
	// Sift the former last item down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].above(h[c]) {
			c++
		}
		if !h[c].above(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	return top, true
}

// Len returns the number of items.
func (pl *PriorityList) Len() int { return len(pl.heap) }

// Reset empties the list, keeping its storage.
func (pl *PriorityList) Reset() { pl.heap = pl.heap[:0] }

// Set is the insertion-ordered free-task set for schedulers that re-evaluate
// every free task on every step instead of maintaining static priorities —
// FTBAR scans the whole set for its most-urgent (task, processor) pair.
// Removal is stable, preserving the order of the remaining tasks.
type Set struct {
	ids []dag.TaskID
}

// Add appends a task to the set.
func (s *Set) Add(t dag.TaskID) { s.ids = append(s.ids, t) }

// Remove deletes t — its first occurrence; list schedulers hold each free
// task at most once — by moving the later tasks down one place, so the rest
// keep their insertion order. An absent t is a no-op.
func (s *Set) Remove(t dag.TaskID) {
	for i, f := range s.ids {
		if f == t {
			s.ids = append(s.ids[:i], s.ids[i+1:]...)
			return
		}
	}
}

// Tasks returns the set's tasks in insertion order. The slice is owned by
// the set and valid until the next Add or Remove.
func (s *Set) Tasks() []dag.TaskID { return s.ids }

// Len returns the number of tasks in the set.
func (s *Set) Len() int { return len(s.ids) }
