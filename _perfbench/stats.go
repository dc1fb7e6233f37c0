package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie strictly above a tail percentile
// before the benchmark reports it: with fewer, the figure is one or two
// outliers, not a percentile.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). A tail
// percentile (q > 0.5) is refused unless at least minTail samples lie above
// its rank; the median has no such floor.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, errors.New("percentile of no samples")
	}
	idx := rank(n, q)
	if beyond := n - 1 - idx; q > 0.5 && beyond < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minTail, beyond, n)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[idx], nil
}

// rank is the 0-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	return max(0, min(n-1, int(math.Ceil(q*float64(n)))-1))
}

// median is the middle value (the mean of the middle two for even counts).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms and sec convert a duration to float milliseconds / seconds.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
