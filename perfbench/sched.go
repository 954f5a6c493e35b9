package main

import (
	"math/rand/v2"
	"sort"
	"time"
)

// Open-loop arrival process of the http-jobs workload. Calm and burst
// phases alternate; within a phase the gaps between arrivals are
// exponential. Both rates sit well below what a 2-core host sustains for
// these small jobs (about 1,000 jobs/s), so the queue never grows without
// bound and the shed ladder never arms, while the rate change still makes
// the estimator grow and shrink the allotment.
const (
	calmRate   = 150.0 // arrivals per second
	burstRate  = 500.0
	calmPhase  = time.Second
	burstPhase = 500 * time.Millisecond

	// classedShare of the jobs carry a priority class (half normal, half
	// high) and a start deadline generous enough never to be unmeetable.
	classedShare = 0.2
	jobDeadline  = "1s"
)

// arrival is one open-loop request: when it is due, relative to the start
// of the load, and the job it submits.
type arrival struct {
	At     time.Duration `json:"at"`
	Fanout int           `json:"fanout"`
	Work   int           `json:"work"`
	Class  string        `json:"class,omitempty"`
}

// newRand returns the generator every seeded input of the benchmark is
// drawn from; stream separates the inputs of one seed from each other.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// openLoopSchedule draws the arrival schedule for dur of load from seed.
// The same seed yields the same schedule, byte for byte.
func openLoopSchedule(seed uint64, dur time.Duration) []arrival {
	r := newRand(seed, 1)
	var out []arrival
	var t time.Duration
	for {
		rate := calmRate
		if t%(calmPhase+burstPhase) >= calmPhase {
			rate = burstRate
		}
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		// The http-jobs mix: fanout 1-16, work 0-20000 cycles per leaf.
		a := arrival{At: t, Fanout: 1 + r.IntN(16), Work: r.IntN(20_001)}
		if u := r.Float64(); u < classedShare/2 {
			a.Class = "normal"
		} else if u < classedShare {
			a.Class = "high"
		}
		out = append(out, a)
	}
}

// lateBound is how far behind its schedule the generator may run, at the
// p99 of its send lateness, before the run is invalid: past it the load
// the server saw is not the load the seed describes. It is a twentieth of
// the shortest phase, so all but the latest 1% of requests land well
// inside the phase the seed put them in. The lateness is the wake-up
// delay of the sending goroutine, which a busy or slowed 2-vCPU host
// stretches to 10-14 ms at the p99 without changing the phase mix.
const lateBound = burstPhase / 20

// lateness accounts how late the open-loop generator handed each request
// to a connection, relative to its due time.
type lateness struct {
	samples []time.Duration
}

// note records one request that was due at due and handed off at sent.
// A request handed off early (timer slack) counts as on time.
func (l *lateness) note(due, sent time.Time) {
	d := sent.Sub(due)
	if d < 0 {
		d = 0
	}
	l.samples = append(l.samples, d)
}

// summary returns the p99 and the maximum lateness, and whether the p99
// exceeds lateBound.
func (l *lateness) summary() (p99, max time.Duration, behind bool) {
	if len(l.samples) == 0 {
		return 0, 0, false
	}
	s := append([]time.Duration(nil), l.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := (len(s)*99+99)/100 - 1
	p99 = s[k]
	return p99, s[len(s)-1], p99 > lateBound
}
