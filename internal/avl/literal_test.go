// Package avl is the paper's free-task list kept as a test oracle. Section
// 4.1 maintains the priority list α as an AVL tree with O(log ω) insertion,
// deletion and head lookup, where ω is the DAG width; the schedulers now keep
// α in kernel.PriorityList, a binary heap over the same total order, and no
// non-test code imports this directory. The tree and its FreeList façade stay
// here verbatim, in a _test file, as the literal structure the heap is
// checked against (TestHeapPopsWhatTheTreePops) — and because their own
// tests stay in the suite.
//
// Tree is generic over the key type and fully ordered by a caller-supplied
// less function; FreeList wraps it with the scheduler's entry shape: entries
// order by priority first, then by a random tie-break value (the paper
// breaks priority ties randomly), then by task ID for determinism.
package avl

// Tree is an AVL tree holding keys of type K ordered by the less function.
// Duplicate keys (less(a,b) and less(b,a) both false) are rejected by Insert.
// The zero Tree is not usable; call New.
type Tree[K any] struct {
	less func(a, b K) bool
	root *node[K]
	size int
}

type node[K any] struct {
	key         K
	left, right *node[K]
	height      int8
}

// New returns an empty AVL tree ordered by less.
func New[K any](less func(a, b K) bool) *Tree[K] {
	return &Tree[K]{less: less}
}

// Len returns the number of keys stored.
func (t *Tree[K]) Len() int { return t.size }

func height[K any](n *node[K]) int8 {
	if n == nil {
		return 0
	}
	return n.height
}

func update[K any](n *node[K]) {
	hl, hr := height(n.left), height(n.right)
	if hl > hr {
		n.height = hl + 1
	} else {
		n.height = hr + 1
	}
}

func balanceFactor[K any](n *node[K]) int {
	return int(height(n.left)) - int(height(n.right))
}

func rotateRight[K any](y *node[K]) *node[K] {
	x := y.left
	y.left = x.right
	x.right = y
	update(y)
	update(x)
	return x
}

func rotateLeft[K any](x *node[K]) *node[K] {
	y := x.right
	x.right = y.left
	y.left = x
	update(x)
	update(y)
	return y
}

func rebalance[K any](n *node[K]) *node[K] {
	update(n)
	bf := balanceFactor(n)
	switch {
	case bf > 1:
		if balanceFactor(n.left) < 0 {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if balanceFactor(n.right) > 0 {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

// Insert adds key to the tree. It reports false (and leaves the tree
// unchanged) if an equal key is already present.
func (t *Tree[K]) Insert(key K) bool {
	var inserted bool
	t.root, inserted = t.insert(t.root, key)
	if inserted {
		t.size++
	}
	return inserted
}

func (t *Tree[K]) insert(n *node[K], key K) (*node[K], bool) {
	if n == nil {
		return &node[K]{key: key, height: 1}, true
	}
	var ok bool
	switch {
	case t.less(key, n.key):
		n.left, ok = t.insert(n.left, key)
	case t.less(n.key, key):
		n.right, ok = t.insert(n.right, key)
	default:
		return n, false
	}
	if !ok {
		return n, false
	}
	return rebalance(n), true
}

// Delete removes key from the tree, reporting whether it was present.
func (t *Tree[K]) Delete(key K) bool {
	var deleted bool
	t.root, deleted = t.delete(t.root, key)
	if deleted {
		t.size--
	}
	return deleted
}

func (t *Tree[K]) delete(n *node[K], key K) (*node[K], bool) {
	if n == nil {
		return nil, false
	}
	var ok bool
	switch {
	case t.less(key, n.key):
		n.left, ok = t.delete(n.left, key)
	case t.less(n.key, key):
		n.right, ok = t.delete(n.right, key)
	default:
		ok = true
		switch {
		case n.left == nil:
			return n.right, true
		case n.right == nil:
			return n.left, true
		default:
			// Replace with in-order successor.
			succ := n.right
			for succ.left != nil {
				succ = succ.left
			}
			n.key = succ.key
			n.right, _ = t.delete(n.right, succ.key)
		}
	}
	if !ok {
		return n, false
	}
	return rebalance(n), true
}

// Contains reports whether key is present.
func (t *Tree[K]) Contains(key K) bool {
	n := t.root
	for n != nil {
		switch {
		case t.less(key, n.key):
			n = n.left
		case t.less(n.key, key):
			n = n.right
		default:
			return true
		}
	}
	return false
}

// Min returns the smallest key; ok is false for an empty tree.
func (t *Tree[K]) Min() (key K, ok bool) {
	n := t.root
	if n == nil {
		return key, false
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, true
}

// Max returns the largest key; ok is false for an empty tree.
func (t *Tree[K]) Max() (key K, ok bool) {
	n := t.root
	if n == nil {
		return key, false
	}
	for n.right != nil {
		n = n.right
	}
	return n.key, true
}

// DeleteMin removes and returns the smallest key.
func (t *Tree[K]) DeleteMin() (key K, ok bool) {
	key, ok = t.Min()
	if ok {
		t.Delete(key)
	}
	return key, ok
}

// DeleteMax removes and returns the largest key.
func (t *Tree[K]) DeleteMax() (key K, ok bool) {
	key, ok = t.Max()
	if ok {
		t.Delete(key)
	}
	return key, ok
}

// Ascend calls fn on every key in increasing order until fn returns false.
func (t *Tree[K]) Ascend(fn func(key K) bool) {
	var walk func(n *node[K]) bool
	walk = func(n *node[K]) bool {
		if n == nil {
			return true
		}
		return walk(n.left) && fn(n.key) && walk(n.right)
	}
	walk(t.root)
}

// Keys returns all keys in increasing order.
func (t *Tree[K]) Keys() []K {
	out := make([]K, 0, t.size)
	t.Ascend(func(k K) bool { out = append(out, k); return true })
	return out
}

// Height returns the height of the tree (0 for empty).
func (t *Tree[K]) Height() int { return int(height(t.root)) }

// CheckInvariants verifies the AVL balance and ordering invariants; it is
// exported for tests and returns false on the first violation.
func (t *Tree[K]) CheckInvariants() bool {
	ok := true
	var walk func(n *node[K]) int8
	walk = func(n *node[K]) int8 {
		if n == nil || !ok {
			return 0
		}
		hl, hr := walk(n.left), walk(n.right)
		want := hl
		if hr > hl {
			want = hr
		}
		want++
		if n.height != want {
			ok = false
		}
		if bf := int(hl) - int(hr); bf < -1 || bf > 1 {
			ok = false
		}
		if n.left != nil && !t.less(n.left.key, n.key) {
			ok = false
		}
		if n.right != nil && !t.less(n.key, n.right.key) {
			ok = false
		}
		return want
	}
	walk(t.root)
	// Size agreement.
	count := 0
	t.Ascend(func(K) bool { count++; return true })
	return ok && count == t.size
}

// Entry is one element of a FreeList: an integer task ID with a scheduling
// priority. Ties between equal priorities are broken by a caller-supplied
// tie value (the schedulers draw it at random, matching the paper's "ties
// are broken randomly"); remaining ties fall back to the task ID so the
// ordering is total.
type Entry struct {
	Priority float64
	Tie      uint64
	ID       int
}

// FreeList is the priority list α of Section 4.1: a balanced search tree of
// free tasks from which H(α), the highest-priority task, is repeatedly
// extracted. All operations are O(log n).
type FreeList struct {
	tree *Tree[Entry]
}

// NewFreeList returns an empty priority list.
func NewFreeList() *FreeList {
	return &FreeList{tree: New(func(a, b Entry) bool {
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		if a.Tie != b.Tie {
			return a.Tie < b.Tie
		}
		return a.ID < b.ID
	})}
}

// Len returns |α|.
func (l *FreeList) Len() int { return l.tree.Len() }

// Push inserts an entry; it reports false if an identical entry is present.
func (l *FreeList) Push(e Entry) bool { return l.tree.Insert(e) }

// Remove deletes an entry previously pushed; it reports whether it existed.
func (l *FreeList) Remove(e Entry) bool { return l.tree.Delete(e) }

// Head returns H(α), the entry with the highest priority, without removing
// it; ok is false when the list is empty.
func (l *FreeList) Head() (Entry, bool) { return l.tree.Max() }

// PopHead removes and returns H(α).
func (l *FreeList) PopHead() (Entry, bool) { return l.tree.DeleteMax() }

// Height exposes the underlying tree height, for tests asserting the
// O(log ω) bound.
func (l *FreeList) Height() int { return l.tree.Height() }

// CheckInvariants verifies the underlying AVL invariants (tests only).
func (l *FreeList) CheckInvariants() bool { return l.tree.CheckInvariants() }
