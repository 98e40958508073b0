// Package trace records per-step simulation activity into a bounded
// in-memory buffer and exports it as CSV, for debugging
// protocols and for plotting time-series (informed-node curves, collision
// rates) outside Go. It plugs into any engine through the radio.Options
// OnStep hook.
package trace

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/radio"
)

// Event is one recorded step.
type Event struct {
	Step       int
	Transmits  int
	Deliveries int
	Collisions int
	// Custom is an optional protocol-defined gauge (e.g. informed count),
	// filled by the Gauge callback if installed.
	Custom int
}

// Recorder buffers step events up to a capacity (0 = unbounded).
type Recorder struct {
	capacity int
	events   []Event
	dropped  int
	// Gauge, when non-nil, is sampled after every step into Event.Custom.
	Gauge func() int
}

// NewRecorder creates a Recorder keeping at most capacity events
// (0 for unbounded).
func NewRecorder(capacity int) *Recorder {
	return &Recorder{capacity: capacity}
}

// OnStep returns the hook to install into radio.Options.OnStep (or the SINR
// engine's Options.OnStep, which shares the shape).
func (r *Recorder) OnStep() func(radio.StepStats) {
	return func(st radio.StepStats) {
		ev := Event{
			Step:       st.Step,
			Transmits:  st.Transmits,
			Deliveries: st.Deliveries,
			Collisions: st.Collisions,
		}
		if r.Gauge != nil {
			ev.Custom = r.Gauge()
		}
		if r.capacity > 0 && len(r.events) >= r.capacity {
			r.dropped++
			return
		}
		r.events = append(r.events, ev)
	}
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// WriteCSV writes "step,transmits,deliveries,collisions,custom" rows.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "step,transmits,deliveries,collisions,custom\n"); err != nil {
		return err
	}
	for _, ev := range r.events {
		row := strconv.Itoa(ev.Step) + "," + strconv.Itoa(ev.Transmits) + "," +
			strconv.Itoa(ev.Deliveries) + "," + strconv.Itoa(ev.Collisions) + "," +
			strconv.Itoa(ev.Custom) + "\n"
		if _, err := io.WriteString(w, row); err != nil {
			return err
		}
	}
	return nil
}

// Summary aggregates a recording.
type Summary struct {
	Steps              int
	TotalTransmits     int
	TotalDeliveries    int
	TotalCollisions    int
	PeakTransmits      int
	BusiestStep        int
	DeliveryRate       float64 // deliveries / transmits
	CollisionStepShare float64 // fraction of steps with ≥1 collision
}

// Summarize computes aggregate statistics over the recording.
func (r *Recorder) Summarize() Summary {
	s := Summary{Steps: len(r.events)}
	collisionSteps := 0
	for _, ev := range r.events {
		s.TotalTransmits += ev.Transmits
		s.TotalDeliveries += ev.Deliveries
		s.TotalCollisions += ev.Collisions
		if ev.Transmits > s.PeakTransmits {
			s.PeakTransmits = ev.Transmits
			s.BusiestStep = ev.Step
		}
		if ev.Collisions > 0 {
			collisionSteps++
		}
	}
	if s.TotalTransmits > 0 {
		s.DeliveryRate = float64(s.TotalDeliveries) / float64(s.TotalTransmits)
	}
	if s.Steps > 0 {
		s.CollisionStepShare = float64(collisionSteps) / float64(s.Steps)
	}
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("steps=%d tx=%d rx=%d coll=%d peak=%d@%d rate=%.3f collsteps=%.3f",
		s.Steps, s.TotalTransmits, s.TotalDeliveries, s.TotalCollisions,
		s.PeakTransmits, s.BusiestStep, s.DeliveryRate, s.CollisionStepShare)
}
