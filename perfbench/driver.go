package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bqs"
)

// slot is one operation in flight. A blocking client is one slot; a
// Session client keeps window slots, each issuing its next operation only
// after the previous one returns. A slot owns a disjoint share of the key
// space, so no two operations in flight ever touch the same key and the
// slot's own record of its writes is the read oracle.
type slot struct {
	keys []string
	last []string // value of the last acknowledged write per owned key; "" once a write failed
	rng  *rand.Rand
	do   func(ctx context.Context, read bool, key, val string) (string, error)

	prefix []byte // value prefix derived from the seed and the slot
	seq    int64
	buf    []byte

	attempted, failed int64
	mismatches        int64
	firstMismatch     string
	firstErr          error
}

// nextValue returns a value no earlier write of this run used.
func (s *slot) nextValue() string {
	s.seq++
	s.buf = strconv.AppendInt(append(s.buf[:0], s.prefix...), s.seq, 10)
	return string(s.buf)
}

// observe feeds one completed operation to the oracle: a read must return
// exactly the value of the last write to its key, all of which were
// issued by this slot before the read began.
func (s *slot) observe(k int, read bool, val, got string, err error) {
	s.attempted++
	switch {
	case err != nil:
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		if !read {
			s.last[k] = "" // the write may or may not have landed
		}
	case read:
		if want := s.last[k]; want != "" && got != want {
			s.mismatches++
			if s.firstMismatch == "" {
				s.firstMismatch = fmt.Sprintf("key %s: read %q, last acknowledged write %q", s.keys[k], got, want)
			}
		}
	default:
		s.last[k] = val
	}
}

// driver runs a workload's closed-loop clients against a rig.
type driver struct {
	w        *workload
	tr       *tracer
	slots    []*slot
	sessions []*bqs.Session
	stop     atomic.Bool
	base     time.Time
	lat      *latLog // where a timed window records its operations, when record is set
	record   bool
}

func newDriver(w *workload, seed int64, tr *tracer) *driver {
	d := &driver{w: w, tr: tr}
	n := w.clients * w.window
	for i := 0; i < n; i++ {
		s := &slot{
			rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
			prefix: []byte(fmt.Sprintf("v%x.%d.", seed, i)),
		}
		for k := i; k < w.keys; k += n {
			s.keys = append(s.keys, fmt.Sprintf("key-%05d", k))
		}
		s.last = make([]string, len(s.keys))
		d.slots = append(d.slots, s)
	}
	return d
}

// bind attaches the slots to the rig's cluster: one blocking Client per
// client, or one Session per client shared by its window slots.
func (d *driver) bind(r *rig) {
	for c := 0; c < d.w.clients; c++ {
		cl := r.cluster.NewClient(c)
		var do func(ctx context.Context, read bool, key, val string) (string, error)
		if d.w.window == 1 {
			do = func(ctx context.Context, read bool, key, val string) (string, error) {
				if read {
					tv, err := cl.ReadKey(ctx, key)
					return tv.Value, err
				}
				return "", cl.WriteKey(ctx, key, val)
			}
		} else {
			sess := cl.NewSession()
			d.sessions = append(d.sessions, sess)
			do = func(ctx context.Context, read bool, key, val string) (string, error) {
				if read {
					tv, err := sess.Read(ctx, key)
					return tv.Value, err
				}
				return "", sess.Write(ctx, key, val)
			}
		}
		for _, s := range d.slots[c*d.w.window : (c+1)*d.w.window] {
			s.do = do
		}
	}
}

// unbind closes the sessions bind opened.
func (d *driver) unbind() {
	for _, s := range d.sessions {
		s.Close()
	}
	d.sessions = nil
}

// eachSlot runs fn on every slot concurrently and waits for all of them.
func (d *driver) eachSlot(fn func(s *slot) error) error {
	errs := make([]error, len(d.slots))
	var wg sync.WaitGroup
	for i, s := range d.slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// preload writes every key once, slot by slot in parallel.
func (d *driver) preload() error {
	return d.eachSlot(func(s *slot) error {
		for k, key := range s.keys {
			val := s.nextValue()
			if _, err := s.do(context.Background(), false, key, val); err != nil {
				return fmt.Errorf("preloading %s: %w", key, err)
			}
			s.last[k] = val
		}
		return nil
	})
}

// readBack reads every key once and checks it against the oracle.
func (d *driver) readBack() error {
	return d.eachSlot(func(s *slot) error {
		for k, key := range s.keys {
			got, err := s.do(context.Background(), true, key, "")
			s.observe(k, true, "", got, err)
		}
		return nil
	})
}

// run drives the closed loop for dur, calling tick at its start and at
// each of the slices equal boundaries after it, and stops
// early when a traced run's span buffer fills. Every operation in flight
// at the end is allowed to finish. It returns the time the window lasted.
func (d *driver) run(dur time.Duration, slices int, tick func()) time.Duration {
	d.base = time.Now()
	d.stop.Store(false)
	if tick != nil {
		tick()
	}
	var wg sync.WaitGroup
	for _, s := range d.slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !d.stop.Load() {
				d.step(s)
			}
		}()
	}
	elapsed := dur
	for i := 1; i <= slices; i++ {
		at := d.base.Add(dur * time.Duration(i) / time.Duration(slices))
		for now := time.Now(); now.Before(at); now = time.Now() {
			if d.tr != nil && d.tr.full() {
				elapsed = now.Sub(d.base)
				break
			}
			time.Sleep(min(at.Sub(now), 20*time.Millisecond))
		}
		if tick != nil {
			tick()
		}
		if elapsed != dur {
			break
		}
	}
	d.stop.Store(true)
	wg.Wait()
	return elapsed
}

// step issues one operation on one of the slot's keys, drawn uniformly.
func (d *driver) step(s *slot) {
	k := s.rng.Intn(len(s.keys))
	read := s.rng.Float64() < d.w.readFrac
	var val string
	if !read {
		val = s.nextValue()
	}
	ctx := context.Background()
	var id uint32
	if d.tr != nil && d.tr.on.Load() {
		id = d.tr.newID()
		ctx = context.WithValue(ctx, spanKey{}, id)
	}
	t0 := time.Now()
	got, err := s.do(ctx, read, s.keys[k], val)
	t1 := time.Now()
	if id != 0 {
		kind := kWrite
		if read {
			kind = kRead
		}
		d.tr.add(span{kind: kind, id: id, start: d.tr.at(t0), end: d.tr.at(t1)})
	}
	s.observe(k, read, val, got, err)
	if d.record && err == nil {
		d.lat.add(t1.Sub(d.base), t1.Sub(t0))
	}
}

func (d *driver) totals() (attempted, failed int64) {
	for _, s := range d.slots {
		attempted += s.attempted
		failed += s.failed
	}
	return attempted, failed
}
