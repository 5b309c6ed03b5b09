package sim

import "fmt"

// HeapQueue is the default event queue: a binary min-heap ordered by
// (tick, priority, insertion sequence). All operations are O(log n).
type HeapQueue struct {
	now   Tick
	seq   uint64
	heap  []*Event
	fired uint64
}

// NewHeapQueue returns an empty heap-backed event queue at tick 0.
func NewHeapQueue() *HeapQueue { return &HeapQueue{} }

// Now implements Queue.
func (q *HeapQueue) Now() Tick { return q.now }

// Len implements Queue.
func (q *HeapQueue) Len() int { return len(q.heap) }

// Empty implements Queue.
func (q *HeapQueue) Empty() bool { return len(q.heap) == 0 }

// Fired returns the total number of events serviced.
func (q *HeapQueue) Fired() uint64 { return q.fired }

// Schedule implements Queue.
func (q *HeapQueue) Schedule(e *Event, when Tick) {
	if e.pos >= 0 {
		panic(fmt.Sprintf("sim: event %s scheduled twice", e.name))
	}
	if when < q.now {
		panic(fmt.Sprintf("sim: event %s scheduled at %d before now %d", e.name, when, q.now))
	}
	e.when = when
	e.seq = q.seq
	q.seq++
	e.pos = len(q.heap)
	q.heap = append(q.heap, e)
	q.up(e.pos)
}

// Deschedule implements Queue.
func (q *HeapQueue) Deschedule(e *Event) {
	if e.pos < 0 {
		panic(fmt.Sprintf("sim: descheduling unscheduled event %s", e.name))
	}
	q.remove(e.pos)
	e.pos = -1
}

// Reschedule implements Queue.
func (q *HeapQueue) Reschedule(e *Event, when Tick) {
	if e.pos >= 0 {
		q.Deschedule(e)
	}
	q.Schedule(e, when)
}

// NextTick implements Queue.
func (q *HeapQueue) NextTick() Tick {
	if len(q.heap) == 0 {
		panic("sim: NextTick on empty queue")
	}
	return q.heap[0].when
}

// ServiceOne implements Queue.
func (q *HeapQueue) ServiceOne() bool {
	if len(q.heap) == 0 {
		return false
	}
	e := q.heap[0]
	q.remove(0)
	e.pos = -1
	q.now = e.when
	q.fired++
	e.fire()
	return true
}

func (q *HeapQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heap[i].before(q.heap[parent]) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *HeapQueue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && q.heap[l].before(q.heap[small]) {
			small = l
		}
		if r < n && q.heap[r].before(q.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		q.swap(i, small)
		i = small
	}
}

func (q *HeapQueue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].pos = i
	q.heap[j].pos = j
}

func (q *HeapQueue) remove(i int) {
	n := len(q.heap) - 1
	q.swap(i, n)
	q.heap[n] = nil
	q.heap = q.heap[:n]
	if i < n {
		q.up(i)
		q.down(i)
	}
}
