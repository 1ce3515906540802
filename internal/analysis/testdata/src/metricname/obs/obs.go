package obs

// Registry and Scope model the telemetry surface: the analyzer matches the
// recording methods by receiver type and method name.
type Registry struct{ names []string }

func (r *Registry) Add(name string, delta int64)           { r.names = append(r.names, name) }
func (r *Registry) Counter(name string) int64              { return 0 }
func (r *Registry) SetCounter(name string, v int64)        {}
func (r *Registry) SetGauge(name string, v float64)        {}
func (r *Registry) RecordLatency(name string, sec float64) {}

type Scope struct{ reg *Registry }

func (s *Scope) Count(name string, delta int64)         {}
func (s *Scope) SetGauge(name string, v float64)        {}
func (s *Scope) RecordLatency(name string, sec float64) {}
func (s *Scope) CounterValue(name string) int64         { return 0 }
