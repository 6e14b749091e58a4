package main

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// snap is the process's resource counters at one instant.
type snap struct {
	at      time.Duration // since the window's base, when taken for a window
	cpu     time.Duration // user + system CPU of the whole process
	alloc   uint64        // runtime.MemStats.TotalAlloc
	mallocs uint64        // runtime.MemStats.Mallocs
	steal   int64         // the machine's stolen CPU time so far, in clock ticks
}

func takeSnap() snap {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, _ := cpuTicks()
	return snap{
		steal:   steal,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
	}
}

// procIO is the process's /proc/self/io counters: read and write system
// calls and the bytes they moved, sockets and files alike.
type procIO struct {
	syscr, syscw, rchar, wchar int64
}

func readProcIO() (procIO, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	var io procIO
	fields := map[string]*int64{"syscr": &io.syscr, "syscw": &io.syscw, "rchar": &io.rchar, "wchar": &io.wchar}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ":")
		if p := fields[name]; ok && p != nil {
			if *p, err = strconv.ParseInt(strings.TrimSpace(val), 10, 64); err != nil {
				return procIO{}, fmt.Errorf("/proc/self/io %s: %w", name, err)
			}
		}
	}
	return io, nil
}

// cpuTicks returns the machine's stolen and total CPU time from
// /proc/stat, in clock ticks. Time the hypervisor gives to other guests
// shows as steal; a window with much of it measured the neighbours as
// much as the code.
func cpuTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// quantile returns the exact q-quantile of sorted latencies by the
// nearest-rank rule: the smallest value with at least q of the samples at
// or below it.
func quantile(sorted []uint32, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return time.Duration(sorted[max(0, min(i, len(sorted)-1))])
}

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// slice is one slice of a timed window: the counters at its start and end
// and the latencies, in ns, of the operations that ended in it.
type slice struct {
	a, b snap
	lat  []uint32
}

func (s slice) steal() int64 { return s.b.steal - s.a.steal }

// split cuts a window's records, sorted by end time, into the slices
// between consecutive snaps. Records ending after the last snap (the
// operations allowed to finish after the window) are left out.
func split(snaps []snap, recs []uint64) []slice {
	out := make([]slice, 0, len(snaps)-1)
	lo := 0
	for i := 1; i < len(snaps); i++ {
		hi := lo
		for hi < len(recs) && recEnd(recs[hi]) <= snaps[i].at {
			hi++
		}
		lat := make([]uint32, hi-lo)
		for k, r := range recs[lo:hi] {
			lat[k] = recDur(r)
		}
		out = append(out, slice{a: snaps[i-1], b: snaps[i], lat: lat})
		lo = hi
	}
	return out
}

// figures is what a set of slices measured, pooled: every operation of
// every slice counts once.
type figures struct {
	ops                 int
	opsPerS             float64
	p50, p99            time.Duration
	cpuPerOp            time.Duration
	allocBytes, mallocs float64 // per op
	steal               int64   // clock ticks the hypervisor gave to other guests
}

func pool(ss []slice) figures {
	var (
		lat  []uint32
		f    figures
		span time.Duration
		cpu  time.Duration
		a, m uint64
	)
	for _, s := range ss {
		lat = append(lat, s.lat...)
		span += s.b.at - s.a.at
		cpu += s.b.cpu - s.a.cpu
		a += s.b.alloc - s.a.alloc
		m += s.b.mallocs - s.a.mallocs
		f.steal += s.steal()
	}
	slices.Sort(lat)
	f.ops = len(lat)
	f.opsPerS = float64(f.ops) / span.Seconds()
	f.p50, f.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	if f.ops > 0 {
		f.cpuPerOp = cpu / time.Duration(f.ops)
		f.allocBytes = float64(a) / float64(f.ops)
		f.mallocs = float64(m) / float64(f.ops)
	}
	return f
}

// quietest returns the given share of the slices (rounded up) in which
// the hypervisor stole the least CPU time, earlier slices first among
// equals. Stolen time lands on whichever operations are running when a
// virtual CPU is descheduled, so a slice with much of it measures the
// other guests: on mpath-pick the per-slice p99 followed per-slice steal
// with a correlation of 0.93.
func quietest(ss []slice, share float64) []slice {
	q := slices.Clone(ss)
	slices.SortStableFunc(q, func(a, b slice) int { return cmp.Compare(a.steal(), b.steal()) })
	return q[:int(math.Ceil(share*float64(len(q))))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
