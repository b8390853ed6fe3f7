package placer

// The evaluator/recorder module of the core engine (Figure 1): every GP
// iteration appends a Record to the run's Recorder, whose history backs the
// paper's trace figures (the r-ratio observation of §3.1.4, convergence
// curves) and the experiment reports.

import (
	"fmt"
	"io"
	"time"
)

// Record is one GP iteration's snapshot.
type Record struct {
	Iter     int
	HPWL     float64
	WA       float64 // smoothed wirelength
	Energy   float64 // density penalty value
	Overflow float64
	Gamma    float64
	Lambda   float64
	Omega    float64 // placement-stage metric (§3.2)
	R        float64 // lambda*|gradD|/|gradWL| (§3.1.4)
	SimTime  time.Duration
	WallTime time.Duration
}

// Recorder accumulates iteration records. The zero value is ready to use.
type Recorder struct {
	history []Record
}

// Add appends a record.
func (r *Recorder) Add(rec Record) { r.history = append(r.history, rec) }

// Last returns the most recent record; ok is false when empty.
func (r *Recorder) Last() (Record, bool) {
	if len(r.history) == 0 {
		return Record{}, false
	}
	return r.history[len(r.history)-1], true
}

// History returns the full record slice (not a copy; callers must not
// mutate).
func (r *Recorder) History() []Record { return r.history }

// WriteCSV dumps the history as CSV (header + one row per record).
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "iter,hpwl,wa,energy,overflow,gamma,lambda,omega,r,sim_us,wall_us"); err != nil {
		return err
	}
	for _, rec := range r.history {
		if _, err := fmt.Fprintf(w, "%d,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g,%d,%d\n",
			rec.Iter, rec.HPWL, rec.WA, rec.Energy, rec.Overflow, rec.Gamma,
			rec.Lambda, rec.Omega, rec.R, rec.SimTime.Microseconds(), rec.WallTime.Microseconds()); err != nil {
			return err
		}
	}
	return nil
}
