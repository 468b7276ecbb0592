package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified. An empty sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || s[lo] == s[hi] || math.IsInf(s[hi], 1) {
		return s[hi] // also keeps +Inf samples (failed requests) from making NaN
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailLevels is the percentile ladder a tail figure is read from, highest
// first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile on tailLevels that has at least ten
// samples beyond it, and its value. Samples too few for any level beyond
// the median fall back to the median (percentile 50).
func tail(xs []float64) (value, percentile float64) {
	n := float64(len(xs))
	for _, p := range tailLevels {
		if n*(100-p)/100 >= 10-1e-9 || p == 50 {
			return quantile(xs, p/100), p
		}
	}
	return 0, 0
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTimes is the machine-wide CPU time split from /proc/stat, in ticks.
type cpuTimes struct{ steal, total float64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTimes{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of CPU time the hypervisor gave to other guests
// between two readings: host contention this run could not use.
func (t cpuTimes) stealPct(later cpuTimes) float64 {
	if later.total <= t.total {
		return 0
	}
	return 100 * (later.steal - t.steal) / (later.total - t.total)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
