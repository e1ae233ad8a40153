package sim

// fifo is a growable ring buffer: a first-in-first-out queue whose pop
// neither slides a slice off its backing array nor moves elements, so a
// queue that never fully drains still reuses its storage.
type fifo[T any] struct {
	buf  []T // length is zero or a power of two
	head int
	n    int
}

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(8, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes the oldest element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // release what v references
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
