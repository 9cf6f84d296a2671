package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) at the
// current resident set. Where the kernel refuses, the mark keeps
// counting from process start.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// usage is a snapshot of the process counters a phase is charged with.
type usage struct {
	wall      time.Time
	cpu       float64
	alloc     uint64
	gcCycles  uint32
	gcPauseNs uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:      time.Now(),
		cpu:       cpuSeconds(),
		alloc:     ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPauseNs: ms.PauseTotalNs,
	}
}

// delta is the cost of a phase between two usage snapshots.
type delta struct {
	wallSec, cpuSec float64
	allocBytes      float64
	gcCycles        float64
	gcPauseMs       float64
}

func since(a usage) delta {
	b := readUsage()
	return delta{
		wallSec:    b.wall.Sub(a.wall).Seconds(),
		cpuSec:     b.cpu - a.cpu,
		allocBytes: float64(b.alloc - a.alloc),
		gcCycles:   float64(b.gcCycles - a.gcCycles),
		gcPauseMs:  float64(b.gcPauseNs-a.gcPauseNs) / 1e6,
	}
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for none); xs is reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// hostSample is a snapshot of what other work on the machine took from
// this process: the CPU time the hypervisor stole from the virtual
// CPUs, the busy time of every CPU, and this process's involuntary
// context switches and CPU time.
type hostSample struct {
	wall          time.Time
	stealS, busyS float64
	nivcsw        int64
	cpuS          float64
}

// clockTick is USER_HZ, the unit of /proc/stat; Linux fixes it at 100
// on every architecture Go supports.
const clockTick = 100

func readHost() hostSample {
	h := hostSample{wall: time.Now(), cpuS: cpuSeconds()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		h.nivcsw = ru.Nivcsw
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return h
	}
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		switch i {
		case 4, 5: // idle, iowait
		case 8:
			h.stealS = v / clockTick
		default:
			h.busyS += v / clockTick
		}
	}
	return h
}

// since describes the contention over the window from h to now: the
// share of the machine's CPU time stolen, the share other processes
// kept busy, and this process's involuntary context switches per
// second. A run whose figures stray can be told apart from a contended
// one by these.
func (h hostSample) since() map[string]float64 {
	n := readHost()
	wall := n.wall.Sub(h.wall).Seconds()
	cpus := float64(runtime.NumCPU())
	return map[string]float64{
		"wall_s":             wall,
		"steal_share":        (n.stealS - h.stealS) / (wall * cpus),
		"other_busy_share":   max(0, (n.busyS-h.busyS)-(n.cpuS-h.cpuS)) / (wall * cpus),
		"invol_ctx_sw_per_s": float64(n.nivcsw-h.nivcsw) / wall,
	}
}
