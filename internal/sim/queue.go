package sim

// Queue is a FIFO channel between simulation processes, equivalent to a
// SimPy Store. A zero capacity means unbounded. Items are delivered in
// strict insertion order; blocked getters are served in arrival order.
type Queue[T any] struct {
	env     *Env
	items   fifo[T]
	cap     int
	getters fifo[*Event] // each fires with the delivered item
	putters fifo[*putWait[T]]
}

type putWait[T any] struct {
	item T
	ev   *Event
}

// NewQueue returns a queue bound to env. capacity <= 0 means unbounded.
func NewQueue[T any](env *Env, capacity int) *Queue[T] {
	return &Queue[T]{env: env, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.n }

// Put appends v, blocking the calling process while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	if q.cap > 0 && q.items.n >= q.cap && q.getters.n == 0 {
		w := &putWait[T]{item: v, ev: q.env.NewEvent()}
		q.putters.push(w)
		p.Wait(w.ev)
		return
	}
	q.deliver(v)
}

// TryPut appends v without blocking; it reports false if the queue is full.
func (q *Queue[T]) TryPut(v T) bool {
	if q.cap > 0 && q.items.n >= q.cap && q.getters.n == 0 {
		return false
	}
	q.deliver(v)
	return true
}

// deliver hands v to a waiting getter or buffers it.
func (q *Queue[T]) deliver(v T) {
	if q.getters.n > 0 {
		q.getters.pop().Trigger(v)
		return
	}
	q.items.push(v)
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	if q.items.n > 0 {
		return q.pop()
	}
	ev := q.env.NewEvent()
	q.getters.push(ev)
	v := p.Wait(ev)
	return v.(T)
}

// TryGet removes the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if q.items.n == 0 {
		return zero, false
	}
	return q.pop(), true
}

// GetEvent returns an event that fires with the next available item,
// consuming it. Useful with WaitAny to select over multiple queues.
func (q *Queue[T]) GetEvent() *Event {
	ev := q.env.NewEvent()
	if q.items.n > 0 {
		ev.Trigger(q.pop())
		return ev
	}
	q.getters.push(ev)
	return ev
}

func (q *Queue[T]) pop() T {
	v := q.items.pop()
	// Admit one blocked putter now that space freed up.
	if q.putters.n > 0 && (q.cap <= 0 || q.items.n < q.cap) {
		w := q.putters.pop()
		q.items.push(w.item)
		w.ev.Trigger(nil)
	}
	return v
}
