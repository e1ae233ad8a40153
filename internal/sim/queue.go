package sim

// Queue is a FIFO channel between simulation processes, equivalent to a
// SimPy Store. A zero capacity means unbounded. Items are delivered in
// strict insertion order; blocked getters are served in arrival order.
type Queue[T any] struct {
	env     *Env
	items   FIFO[T]
	cap     int
	getters FIFO[*Event] // each fires with the delivered item
}

// NewQueue returns a queue bound to env. capacity <= 0 means unbounded.
func NewQueue[T any](env *Env, capacity int) *Queue[T] {
	return &Queue[T]{env: env, cap: capacity}
}

// TryPut hands v to the oldest blocked getter, or appends it; it reports
// false if the queue is full.
func (q *Queue[T]) TryPut(v T) bool {
	if q.getters.Len() > 0 {
		q.getters.Pop().Trigger(v)
		return true
	}
	if q.cap > 0 && q.items.Len() >= q.cap {
		return false
	}
	q.items.Push(v)
	return true
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	if q.items.Len() > 0 {
		return q.items.Pop()
	}
	ev := q.env.NewEvent()
	q.getters.Push(ev)
	v := p.Wait(ev)
	return v.(T)
}
