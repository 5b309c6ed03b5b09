package sim

import (
	"fmt"
	"math/rand"
)

// SimObject is any named component of the simulated system. Mirroring gem5,
// everything from CPUs to caches to devices is a SimObject registered with
// the owning System.
type SimObject interface {
	Name() string
}

// Startable is implemented by SimObjects that need a callback once the whole
// system is constructed, before the first event fires (gem5's startup()).
type Startable interface {
	Startup()
}

// System owns the event queue, the statistics registry, the host tracer, and
// every SimObject of one simulated machine. It is the root object handed to
// all components.
type System struct {
	queue   Queue
	objects []SimObject
	byName  map[string]SimObject
	stats   *Registry
	tracer  Tracer
	rng     *rand.Rand

	fnDispatch FuncID // host function for the event service loop
	fnSchedule FuncID // host function for queue insertion
	serviced   uint64
	started    bool
}

// NewSystem returns a System with a heap event queue, a NopTracer, and a
// deterministic RNG seeded with seed.
func NewSystem(seed int64) *System {
	return NewSystemWith(NewHeapQueue(), NewNopTracer(), seed)
}

// NewSystemWith returns a System using the provided queue backend and tracer.
func NewSystemWith(q Queue, tr Tracer, seed int64) *System {
	s := &System{
		queue:  q,
		byName: make(map[string]SimObject),
		stats:  NewRegistry(),
		tracer: tr,
		rng:    rand.New(rand.NewSource(seed)),
	}
	s.fnDispatch = tr.RegisterFunc("EventQueue::serviceOne", 480, FuncHot)
	s.fnSchedule = tr.RegisterFunc("EventQueue::schedule", 320, FuncHot)
	return s
}

// Queue returns the system's event queue backend.
func (s *System) Queue() Queue { return s.queue }

// Tracer returns the host tracer.
func (s *System) Tracer() Tracer { return s.tracer }

// Stats returns the statistics registry.
func (s *System) Stats() *Registry { return s.stats }

// Rand returns the system's deterministic random source.
func (s *System) Rand() *rand.Rand { return s.rng }

// Now returns the current simulation time.
func (s *System) Now() Tick { return s.queue.Now() }

// EventsServiced returns the number of events fired so far.
func (s *System) EventsServiced() uint64 { return s.serviced }

// Register adds a SimObject. Names must be unique within the system.
func (s *System) Register(obj SimObject) {
	name := obj.Name()
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("sim: duplicate SimObject name %q", name))
	}
	s.byName[name] = obj
	s.objects = append(s.objects, obj)
}

// Object returns the SimObject with the given name, or nil.
func (s *System) Object(name string) SimObject { return s.byName[name] }

// Objects returns all registered SimObjects in registration order.
func (s *System) Objects() []SimObject { return s.objects }

// Schedule inserts e at absolute tick when, attributing the queue work to
// the host model.
func (s *System) Schedule(e *Event, when Tick) {
	s.tracer.Call(s.fnSchedule)
	s.queue.Schedule(e, when)
}

// ScheduleIn inserts e delta ticks in the future.
func (s *System) ScheduleIn(e *Event, delta Tick) {
	s.Schedule(e, s.queue.Now()+delta)
}

// Deschedule removes a scheduled event.
func (s *System) Deschedule(e *Event) { s.queue.Deschedule(e) }

// Reschedule moves e to absolute tick when, scheduling it if necessary.
func (s *System) Reschedule(e *Event, when Tick) {
	s.tracer.Call(s.fnSchedule)
	s.queue.Reschedule(e, when)
}

// startup runs Startup on every object exactly once.
func (s *System) startup() {
	if s.started {
		return
	}
	s.started = true
	for _, obj := range s.objects {
		if st, ok := obj.(Startable); ok {
			st.Startup()
		}
	}
}

// ExitStatus describes why a simulation run returned.
type ExitStatus int

const (
	// ExitQueueEmpty means no events remained.
	ExitQueueEmpty ExitStatus = iota
	// ExitLimit means the tick limit was reached.
	ExitLimit
	// ExitEventLimit means the maximum event count was reached.
	ExitEventLimit
	// ExitRequested means a component called RequestExit.
	ExitRequested
)

func (e ExitStatus) String() string {
	switch e {
	case ExitQueueEmpty:
		return "queue empty"
	case ExitLimit:
		return "tick limit"
	case ExitEventLimit:
		return "event limit"
	case ExitRequested:
		return "exit requested"
	}
	return fmt.Sprintf("ExitStatus(%d)", int(e))
}

// exitRequest carries a component-initiated simulation exit.
type exitRequest struct {
	reason string
	code   int
}

// RequestExit stops the current Run call after the current event completes.
func (s *System) RequestExit(reason string, code int) {
	panic(&exitRequest{reason: reason, code: code})
}

// RunResult describes a completed Run call.
type RunResult struct {
	Status     ExitStatus
	ExitReason string
	ExitCode   int
	Now        Tick
	Events     uint64
}

// Run services events until the queue empties, limit ticks is exceeded,
// maxEvents events have fired (0 = unlimited), or a component requests exit.
func (s *System) Run(limit Tick, maxEvents uint64) RunResult {
	s.startup()
	res := RunResult{Status: ExitQueueEmpty}
	for {
		if s.queue.Empty() {
			res.Status = ExitQueueEmpty
			break
		}
		if s.queue.NextTick() > limit {
			res.Status = ExitLimit
			break
		}
		if maxEvents > 0 && res.Events >= maxEvents {
			res.Status = ExitEventLimit
			break
		}
		stop := s.serviceOneCatching(&res)
		res.Events++
		s.serviced++
		if stop {
			break
		}
	}
	res.Now = s.queue.Now()
	return res
}

// serviceOneCatching fires one event, translating RequestExit panics into a
// clean stop. Returns true when the run should stop.
func (s *System) serviceOneCatching(res *RunResult) (stop bool) {
	defer func() {
		if r := recover(); r != nil {
			if ex, ok := r.(*exitRequest); ok {
				res.Status = ExitRequested
				res.ExitReason = ex.reason
				res.ExitCode = ex.code
				stop = true
				return
			}
			panic(r)
		}
	}()
	s.tracer.Call(s.fnDispatch)
	s.queue.ServiceOne()
	return false
}
