package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is the number of samples that must lie beyond a reported tail
// percentile, and minTailSamples the count below which no tail is reported.
const (
	minTail        = 10
	minTailSamples = 40
)

// tailPercentile returns the p99 of xs or, when fewer than ten samples
// would lie beyond the p99, the highest percentile that has at least ten
// samples beyond it. With fewer than forty samples it returns the median:
// a percentile with so few samples beyond it says nothing about the tail.
func tailPercentile(xs []float64) float64 {
	n := len(xs)
	if n < minTailSamples {
		return median(xs)
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(0.99*float64(n))) - 1
	if k > n-1-minTail {
		k = n - 1 - minTail
	}
	return s[k]
}

// quartiles returns the first, second and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so the spreads this program prints are the ones
// the acceptance rule computes. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the user+system CPU time of process pid from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s on Linux).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, os.ErrInvalid
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, os.ErrInvalid
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, os.ErrInvalid
	}
	const tick = 10 * time.Millisecond
	return time.Duration(ut+st) * tick, nil
}

// peakRSSMB returns the peak resident set (VmHWM) of process pid, or of
// this process for pid 0, in MiB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fs[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, os.ErrNotExist
}
