package core

// pheap is a hand-inlined binary max-heap of frontier items. It exists
// instead of container/heap because the interface-based API boxes every
// pushed and popped element — one allocation per frontier entry on the
// query hot path. Items order by item.before (highest priority first,
// FIFO seq tie-break, a total order).
type pheap []item

func (h *pheap) push(e item) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *pheap) pop() item {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	s.fixTop()
	return top
}

// fixTop restores the heap order after the top item moved back in it:
// it was replaced, or its priority fell.
func (s pheap) fixTop() {
	n := len(s)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && s[r].before(&s[l]) {
			best = r
		}
		if !s[best].before(&s[i]) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
}
