package main

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// latLogCap is how many operations one timed window can record: 2^23
// records of 8 bytes, 64 MiB of address space, of which only the pages
// written are ever backed. It holds 60 s at 140k operations a second.
const latLogCap = 1 << 23

// latLog records every completed operation of a timed window, exactly:
// when it ended and how long it took. The records live in an anonymous
// memory mapping, outside the Go heap, so the collector paces only the
// program's own memory, whatever the window's length or the host's speed.
// Records kept on the heap, in buffers sized from the warm-up rate, set
// how often the collector ran, and so fed the host's speed back into the
// result: the same code ran 45% faster on mpath-pick in a 120 s window
// than in a 10 s one.
type latLog struct {
	mem  []byte
	recs []uint64 // end in µs since the window's base << 32 | latency in ns
	n    atomic.Int64
}

func newLatLog() (*latLog, error) {
	mem, err := syscall.Mmap(-1, 0, latLogCap*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the latency log: %w", err)
	}
	return &latLog{mem: mem, recs: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), latLogCap)}, nil
}

// add records one operation; a latency past 4.29 s is recorded as 4.29 s.
// Records past the log's capacity are counted but not kept.
func (l *latLog) add(end, dur time.Duration) {
	if i := l.n.Add(1) - 1; i < latLogCap {
		l.recs[i] = uint64(end/time.Microsecond)<<32 | uint64(min(dur, math.MaxUint32))
	}
}

// sorted returns the window's records ordered by end time, or an error if
// the log overflowed.
func (l *latLog) sorted() ([]uint64, error) {
	n := l.n.Load()
	if n > latLogCap {
		return nil, fmt.Errorf("latency log full: %d operations in the window, room for %d", n, latLogCap)
	}
	recs := l.recs[:n]
	slices.Sort(recs)
	return recs, nil
}

func (l *latLog) close() error { return syscall.Munmap(l.mem) }

func recEnd(r uint64) time.Duration { return time.Duration(r>>32) * time.Microsecond }
func recDur(r uint64) uint32        { return uint32(r) }
