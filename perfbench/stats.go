package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// p50 is the median (linear interpolation between the middle samples).
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the highest of p90, p99, p99.9 that has at least ten samples
// above it, by nearest rank; with fewer than 100 samples no such
// percentile exists and tail is the maximum. It returns the value and
// the percentile's name.
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "none"
	}
	s := sorted(xs)
	n := len(s)
	best, name := s[n-1], "max"
	for _, q := range []struct {
		permille int
		name     string
	}{{900, "p90"}, {990, "p99"}, {999, "p99.9"}} {
		i := (q.permille*n+999)/1000 - 1 // nearest rank, in integers
		if n-1-i >= 10 {
			best, name = s[i], q.name
		}
	}
	return best, name
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is the Go runtime's cumulative allocation and GC counters.
type memSnap struct {
	alloc   uint64
	gcs     uint32
	pauseNS uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// peakRSS is a process's high-water resident set (VmHWM) in MiB: the
// kernel's exact peak, with no sampling.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetPeakRSS restarts a process's high-water mark from its current
// resident set.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}
