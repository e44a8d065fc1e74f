// Package sim provides a deterministic discrete-event simulation engine
// for SPMD cluster programs, with one processor runtime.
//
// One driver loop (Engine.RunResumables), on the caller's goroutine,
// repeatedly picks the runnable processor with the smallest virtual clock
// and resumes its body; pending events whose timestamps have been reached
// run first, so processors observe a causally consistent virtual
// timeline. A body takes one of two forms. A state machine (Resumable)
// returns the PollableWait it parks on and keeps no stack between calls,
// which is what lets the simulated machine scale to a million processors.
// An ordinary blocking function (Engine.Run / RunEach) runs as an
// iter.Pull coroutine that yields to the driver wherever it gives up the
// CPU (Park, ParkPollable, a Checkpoint that finds a smaller clock).
// Either way no goroutine or channel belongs to a simulation, the engine
// drives parked pollable waits itself, and ties break the same stable
// way, so every run is bit-for-bit reproducible and the two body forms
// agree wherever a processor parks.
package sim

import "fmt"

// Time is a point in (or span of) virtual time, measured in nanoseconds.
// Nanosecond granularity lets LogGP parameters expressed in fractional
// microseconds (for example o_send = 1.8 µs) be represented exactly.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// Micros converts t to floating-point microseconds, the unit the paper
// reports LogGP parameters in.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromMicros builds a Time from floating-point microseconds, rounding to the
// nearest nanosecond.
func FromMicros(us float64) Time {
	if us < 0 {
		return Time(us*float64(Microsecond) - 0.5)
	}
	return Time(us*float64(Microsecond) + 0.5)
}

// FromSeconds builds a Time from floating-point seconds.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%.3fµs", t.Micros())
	}
}
