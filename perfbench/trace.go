package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bqs"
)

// The traced run times the calls the engine makes into each layer's
// public functions through wrappers defined here; nothing inside the
// program is instrumented. Spans are kept in memory and written out when
// the run ends.

// kind names what a span timed.
type kind uint8

const (
	kRead   kind = iota + 1 // a client read (sim)
	kWrite                  // a client write (sim)
	kPick                   // System.SelectQuorum (core)
	kInvoke                 // Transport.Invoke (in-memory transport or wire.Client)
	kFrame                  // BatchTransport.InvokeBatch
	kApply                  // Store.Apply
)

var kindNames = [...]string{kRead: "sim.read", kWrite: "sim.write", kPick: "core.select_quorum",
	kInvoke: "transport.invoke", kFrame: "transport.invoke_batch", kApply: "store.apply"}

// span is one timed call. parent is the operation span whose context the
// call carried, or 0 when the call carries none (quorum picks, store
// applies and the session batcher's frames, which travel under a
// background context).
type span struct {
	start, end int64 // nanoseconds since the tracer's base
	id, parent uint32
	n          int32 // the server of an Invoke, the items of an InvokeBatch
	kind       kind
}

// spanKey carries the operation span's id in the operation's context.
type spanKey struct{}

const traceShards = 32

// tracer collects spans from many goroutines. Spans go to one of several
// mutex-guarded buffers, chosen by span id, so concurrent probes rarely
// contend.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	ids   atomic.Uint32
	count atomic.Int64
	limit int64

	shards [traceShards]struct {
		mu    sync.Mutex
		spans []span
		_     [32]byte // keep neighbouring locks off one cache line
	}
}

// newTracer returns a tracer that reports full once limit spans are kept,
// bounding the traced window's memory. The span buffers are allocated
// here, at full size: the untraced half of a traced run then runs with
// the same live heap as the traced half, so the garbage collector paces
// both alike and the overhead compares tracing, not heap sizes.
func newTracer(limit int64) *tracer {
	t := &tracer{base: time.Now(), limit: limit}
	for i := range t.shards {
		// 1/16 spare per shard absorbs uneven spreading and the spans of
		// operations that finish after the buffer reports full.
		t.shards[i].spans = make([]span, 0, limit/traceShards+limit/traceShards/16)
	}
	return t
}

func (t *tracer) newID() uint32         { return t.ids.Add(1) }
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }
func (t *tracer) full() bool            { return t.count.Load() >= t.limit }

func (t *tracer) add(s span) {
	if s.id == 0 {
		s.id = t.newID()
	}
	sh := &t.shards[s.id%traceShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
	t.count.Add(1)
}

func (t *tracer) spans() []span {
	var out []span
	for i := range t.shards {
		out = append(out, t.shards[i].spans...)
	}
	return out
}

func parentOf(ctx context.Context) uint32 {
	id, _ := ctx.Value(spanKey{}).(uint32)
	return id
}

// tracedSystem times System.SelectQuorum and forwards the optional
// interfaces the engine inspects, so the cluster treats it exactly like
// the system it wraps.
type tracedSystem struct {
	bqs.System
	masking bqs.Masking
	t       *tracer
}

func (s *tracedSystem) SelectQuorum(rng *rand.Rand, dead bqs.Set) (bqs.Set, error) {
	if !s.t.on.Load() {
		return s.System.SelectQuorum(rng, dead)
	}
	start := s.t.at(time.Now())
	q, err := s.System.SelectQuorum(rng, dead)
	s.t.add(span{kind: kPick, start: start, end: s.t.at(time.Now())})
	return q, err
}

func (s *tracedSystem) MaskingBound() int { return s.masking.MaskingBound() }

// tracedEnumerator is tracedSystem for a system that can materialize its
// quorum list (the strategy-backed pickers need it). The workloads' systems
// are implicit, so Enumerable (a system holding its list) needs no
// forwarding.
type tracedEnumerator struct {
	*tracedSystem
	en bqs.Enumerator
}

func (s tracedEnumerator) Enumerate(limit int) (*bqs.ExplicitSystem, error) {
	return s.en.Enumerate(limit)
}

func (r *rig) wrapSystem(sys bqs.System) (bqs.System, error) {
	if r.tr == nil {
		return sys, nil
	}
	m, ok := sys.(bqs.Masking)
	if !ok {
		return nil, fmt.Errorf("%s: tracing supports masking systems only", sys.Name())
	}
	ts := &tracedSystem{System: sys, masking: m, t: r.tr}
	if en, ok := sys.(bqs.Enumerator); ok {
		return tracedEnumerator{ts, en}, nil
	}
	return ts, nil
}

// frameCoster is the engine's optional hint that a transport's frames
// carry no cost worth batching (the lossless in-memory transport).
type frameCoster interface{ WorthBatching() bool }

// tracedTransport times Invoke and InvokeBatch and counts the probes each
// server receives, for the check against Cluster.LoadProfile.
type tracedTransport struct {
	inner  bqs.BatchTransport
	group  bqs.BatchGrouper
	t      *tracer
	probes []atomic.Int64
}

func (x *tracedTransport) Invoke(ctx context.Context, server int, req bqs.Request) (bqs.Response, error) {
	if !x.t.on.Load() {
		return x.inner.Invoke(ctx, server, req)
	}
	x.count(server)
	start := x.t.at(time.Now())
	resp, err := x.inner.Invoke(ctx, server, req)
	x.t.add(span{kind: kInvoke, parent: parentOf(ctx), n: int32(server), start: start, end: x.t.at(time.Now())})
	return resp, err
}

func (x *tracedTransport) InvokeBatch(ctx context.Context, items []bqs.BatchItem) ([]bqs.Response, error) {
	if !x.t.on.Load() {
		return x.inner.InvokeBatch(ctx, items)
	}
	for _, it := range items {
		x.count(it.Server)
	}
	start := x.t.at(time.Now())
	out, err := x.inner.InvokeBatch(ctx, items)
	x.t.add(span{kind: kFrame, parent: parentOf(ctx), n: int32(len(items)), start: start, end: x.t.at(time.Now())})
	return out, err
}

func (x *tracedTransport) GroupOf(server int) int { return x.group.GroupOf(server) }

func (x *tracedTransport) count(server int) {
	if server >= 0 && server < len(x.probes) {
		x.probes[server].Add(1)
	}
}

func (x *tracedTransport) resetProbes() {
	for i := range x.probes {
		x.probes[i].Store(0)
	}
}

// tracedCostedTransport is tracedTransport for a transport that also
// answers the frame-cost hint.
type tracedCostedTransport struct {
	*tracedTransport
	fc frameCoster
}

func (x tracedCostedTransport) WorthBatching() bool { return x.fc.WorthBatching() }

// wrapTransport wraps tr for tracing. Both transports the workloads use
// offer whole-frame delivery and coalescing hints. A workload built on a
// transport without them would need another wrapper, or its traced run
// would take other code paths; that is a bug in the workload, so it
// panics at set-up.
func (r *rig) wrapTransport(tr bqs.Transport, n int) bqs.Transport {
	if r.tr == nil {
		return tr
	}
	bt, ok1 := tr.(bqs.BatchTransport)
	g, ok2 := tr.(bqs.BatchGrouper)
	if !ok1 || !ok2 {
		panic(fmt.Sprintf("tracing needs a batch transport with a grouper, got %T", tr))
	}
	x := &tracedTransport{inner: bt, group: g, t: r.tr, probes: make([]atomic.Int64, n)}
	r.probes = x
	if fc, ok := tr.(frameCoster); ok {
		return tracedCostedTransport{x, fc}
	}
	return x
}

// tracedStore times Store.Apply and forwards everything else.
type tracedStore struct {
	bqs.Store
	t *tracer
}

func (s tracedStore) Apply(rec bqs.StoreRecord) error {
	if !s.t.on.Load() {
		return s.Store.Apply(rec)
	}
	start := s.t.at(time.Now())
	err := s.Store.Apply(rec)
	s.t.add(span{kind: kApply, start: start, end: s.t.at(time.Now())})
	return err
}

func (r *rig) wrapStore(st bqs.Store) bqs.Store {
	if r.tr == nil {
		return st
	}
	return tracedStore{st, r.tr}
}

// traceSummary is what the spans of one traced window add up to.
type traceSummary struct {
	spans                         int
	reads, writes                 int
	picks, invokes, frames, apply int
	items                         int64
	pickTime, invokeTime          time.Duration
	frameTime, applyTime          time.Duration
	opSelf                        time.Duration // total over operations of time not covered by their transport calls
	opsWithChildren               int
}

func (s traceSummary) ops() int { return s.reads + s.writes }

// summarize adds up the spans. An operation's self time is its duration
// minus the part of it its own transport calls (spans whose parent it is)
// cover; for operations whose calls carry no parent the whole duration
// counts as self time.
func summarize(spans []span) traceSummary {
	var s traceSummary
	s.spans = len(spans)
	var ops, children []span
	for _, sp := range spans {
		d := time.Duration(sp.end - sp.start)
		switch sp.kind {
		case kRead, kWrite:
			if sp.kind == kRead {
				s.reads++
			} else {
				s.writes++
			}
			ops = append(ops, sp)
		case kPick:
			s.picks++
			s.pickTime += d
		case kInvoke:
			s.invokes++
			s.invokeTime += d
		case kFrame:
			s.frames++
			s.items += int64(sp.n)
			s.frameTime += d
		case kApply:
			s.apply++
			s.applyTime += d
		}
		if (sp.kind == kInvoke || sp.kind == kFrame) && sp.parent != 0 {
			children = append(children, sp)
		}
	}
	slices.SortFunc(ops, func(a, b span) int { return int(a.id) - int(b.id) })
	slices.SortFunc(children, func(a, b span) int {
		if a.parent != b.parent {
			return int(a.parent) - int(b.parent)
		}
		return int(a.start - b.start)
	})
	c := 0
	for _, op := range ops {
		for c < len(children) && children[c].parent < op.id {
			c++
		}
		covered, end := int64(0), op.start
		has := false
		for ; c < len(children) && children[c].parent == op.id; c++ {
			has = true
			lo, hi := max(children[c].start, end), min(children[c].end, op.end)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		if has {
			s.opsWithChildren++
		}
		s.opSelf += time.Duration(op.end - op.start - covered)
	}
	return s
}

// dumpSpans writes the spans as gzip-compressed CSV.
func dumpSpans(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, f.Close()) }()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name,id,parent,start_ns,end_ns,n")
	for _, sp := range spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d\n", kindNames[sp.kind], sp.id, sp.parent, sp.start, sp.end, sp.n)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return zw.Close()
}
