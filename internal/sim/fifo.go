package sim

// FIFO is a growable ring buffer: a first-in-first-out queue whose Pop
// neither slides a slice off its backing array nor moves elements, so a
// queue that never fully drains still reuses its storage. The zero value is
// an empty queue.
type FIFO[T any] struct {
	buf  []T // length is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(8, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the oldest element; the queue must not be empty.
func (q *FIFO[T]) Front() T { return q.buf[q.head] }

// Pop removes and returns the oldest element; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // release what v references
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
