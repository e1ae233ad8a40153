package sim

// Queue is an unbounded FIFO channel between simulation processes, equivalent
// to a SimPy Store. Items are delivered in strict insertion order; blocked
// getters are served in arrival order.
type Queue[T any] struct {
	env     *Env
	items   FIFO[T]
	getters FIFO[*Event] // each fires with the delivered item
}

// NewQueue returns an empty queue bound to env.
func NewQueue[T any](env *Env) *Queue[T] {
	return &Queue[T]{env: env}
}

// Put hands v to the oldest blocked getter, or appends it.
func (q *Queue[T]) Put(v T) {
	if q.getters.Len() > 0 {
		q.getters.Pop().Trigger(v)
		return
	}
	q.items.Push(v)
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
