package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"palirria/internal/obs/stream"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so sorting matters
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{40, 41, 100, 999, 1000, 1001, 1500, 5000} {
		v := tailPercentile(seq(n))
		beyond := n - int(v) // samples are 1..n
		if beyond < minTail {
			t.Errorf("n=%d: %d samples beyond %v, want >= %d", n, beyond, v, minTail)
		}
		// The p99 when it has ten samples beyond it, else exactly ten.
		want := int(math.Ceil(0.99 * float64(n)))
		if n-want < minTail {
			want = n - minTail
		}
		if int(v) != want {
			t.Errorf("n=%d: tail at %v, want %d", n, v, want)
		}
	}
}

func TestTailPercentileNeedsFortySamples(t *testing.T) {
	if v := tailPercentile(seq(39)); v != 20 {
		t.Fatalf("39 samples: got %v, want the median 20", v)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestLatenessAccounting(t *testing.T) {
	base := time.Unix(100, 0)
	var l lateness
	// 98 on time, one sent early (counts as on time), one 30 ms late.
	for i := 0; i < 98; i++ {
		due := base.Add(time.Duration(i) * time.Millisecond)
		l.note(due, due)
	}
	l.note(base, base.Add(-time.Millisecond))
	l.note(base, base.Add(30*time.Millisecond))
	p99, max, behind := l.summary()
	if p99 != 0 || max != 30*time.Millisecond || behind {
		t.Fatalf("one late request in 100: p99 %v max %v behind %v, want 0 30ms false", p99, max, behind)
	}
	// Two late in 100 put the p99 past the bound.
	l.note(base, base.Add(2*lateBound))
	if p99, _, behind = l.summary(); p99 <= lateBound || !behind {
		t.Fatalf("two late requests in 101: p99 %v behind %v, want past %v", p99, behind, lateBound)
	}
}

func TestScheduleRepeatsFromSeed(t *testing.T) {
	enc := func(seed uint64) []byte {
		b, err := json.Marshal(openLoopSchedule(seed, 6*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := enc(7), enc(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave two different schedules")
	}
	if bytes.Equal(a, enc(8)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	s := openLoopSchedule(7, 6*time.Second)
	var calm, burst int
	for i, a := range s {
		if i > 0 && a.At < s[i-1].At {
			t.Fatalf("arrival %d at %v before arrival %d at %v", i, a.At, i-1, s[i-1].At)
		}
		if a.Fanout < 1 || a.Fanout > 16 || a.Work < 0 || a.Work > 20_000 {
			t.Fatalf("arrival %d outside the job mix: %+v", i, a)
		}
		if a.At%(calmPhase+burstPhase) < calmPhase {
			calm++
		} else {
			burst++
		}
	}
	// Four calm seconds at 150/s and two burst seconds at 500/s.
	if calm < 450 || calm > 750 || burst < 800 || burst > 1200 {
		t.Fatalf("%d calm and %d burst arrivals, want about 600 and 1000", calm, burst)
	}
}

func TestQuantumArea(t *testing.T) {
	q := func(ts int64, granted, desire int) stream.Event {
		return stream.Event{Kind: stream.KindQuantum, TS: ts, Granted: granted, Desire: desire}
	}
	evs := []stream.Event{q(0, 1, 2), q(10, 2, 4), q(20, 4, 4), q(40, 1, 1)}
	// Window [5, 30]: 1 worker for 5 ns, 2 for 10, 4 for 10.
	g, d, n := quantumArea(evs, 5, 30)
	if g != 5+20+40 || d != 10+40+40 || n != 2 {
		t.Fatalf("area %v desire %v quanta %v, want 65 90 2", g, d, n)
	}
}
