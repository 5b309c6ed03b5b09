// Package sim is a linttest stub of the real simulator core: just enough
// surface (Tick, System scheduling, Registry stats) for the pastsched and
// statreg fixtures to type-check. The analyzers match these by package
// and type name, exactly as they match the real package.
package sim

// Tick is simulated time.
type Tick uint64

// Event is a schedulable event.
type Event struct{ Name string }

// System owns the event queue.
type System struct{ now Tick }

// Now returns the current simulated time.
func (s *System) Now() Tick { return s.now }

// Schedule enqueues e at absolute tick when.
func (s *System) Schedule(e *Event, when Tick) {}

// Reschedule moves e to absolute tick when.
func (s *System) Reschedule(e *Event, when Tick) {}

// Scalar is a settable stat.
type Scalar struct{ v float64 }

// Set updates the stat.
func (s *Scalar) Set(v float64) { s.v = v }

// Add accumulates into the stat.
func (s *Scalar) Add(v float64) { s.v += v }

// Counter is a monotonically increasing stat.
type Counter struct{ n uint64 }

// Inc adds d.
func (c *Counter) Inc(d uint64) { c.n += d }

// Histogram is a distribution stat.
type Histogram struct {
	sum float64
	n   int
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.sum += v
	h.n++
}

// Formula is a derived stat computed at dump time.
type Formula struct{}

// Registry names and owns stats.
type Registry struct{}

// Scalar registers a scalar stat.
func (r *Registry) Scalar(name, desc string) *Scalar { return &Scalar{} }

// Counter registers a counter stat.
func (r *Registry) Counter(name, desc string) *Counter { return &Counter{} }

// Histogram registers a histogram stat.
func (r *Registry) Histogram(name, desc string) *Histogram { return &Histogram{} }

// Formula registers a derived stat.
func (r *Registry) Formula(name, desc string, f func() float64) *Formula { return &Formula{} }

// Tracer records execution into the trace arena (stub).
type Tracer struct{}

// RegisterFunc interns a guest function symbol.
func (t *Tracer) RegisterFunc(name string, size uint32, flags int) int { return 0 }

// Call records one call event.
func (t *Tracer) Call(fn int) {}

// Data records one memory access.
func (t *Tracer) Data(addr uint64, size uint32, write bool) {}
