// Command perfbench is the repository's benchmark: it runs one named
// workload against the live engine for a fixed time, checks that every
// output is correct, and prints every end-to-end metric (or, with
// -trace 1, every per-layer metric) as the last line of its standard
// output, in JSON. See README.md for the workloads and metrics.
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// Run shape. Set-up is repeated and the median over its less-stolen half
// reported (see setupStats.quiet), so that one slow set-up (a cold page
// cache, a neighbour's burst) does not move setup_s.
const (
	setups         = 15
	sliceLen       = 250 * time.Millisecond
	quietShare     = 1.0 / 3 // share of the slices the end-to-end figures come from, see quietest
	traceSpanLimit = 1 << 20 // about 32 MiB of spans
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	commit   string
	out      string // directory for store files and span dumps
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.commit, "commit", "unknown", "identity of the code under test, for the host record")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for store files and span dumps")
	flag.Parse()

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config, log io.Writer) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: must be at least 1", cfg.seconds)
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return nil, fmt.Errorf("-trace %d: must be 0 or 1", cfg.trace)
	}
	host, _ := json.Marshal(map[string]any{
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os_arch": runtime.GOOS + "/" + runtime.GOARCH, "commit": cfg.commit,
	})
	fmt.Fprintf(log, "host %s\n", host)
	fmt.Fprintf(log, "workload %s seed %d seconds %d trace %d: %d clients x %d in flight, %d keys, %.0f%% reads\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, w.clients, w.window, w.keys, 100*w.readFrac)

	dataRoot := filepath.Join(cfg.out, "data", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dataRoot)
	b := &bench{cfg: cfg, w: w, log: log, dataRoot: dataRoot, res: &result{Correct: true, Metrics: map[string]metric{}}}
	dur := time.Duration(cfg.seconds) * time.Second
	if cfg.trace == 0 {
		err = b.endToEnd(dur)
	} else {
		err = b.traced(dur)
	}
	if err != nil {
		return nil, err
	}
	return b.res, nil
}

// bench is one invocation: its configuration and the result it builds.
type bench struct {
	cfg      config
	w        *workload
	log      io.Writer
	dataRoot string
	res      *result
	rigs     int
}

func (b *bench) metric(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{v, unit}
	fmt.Fprintf(b.log, "metric %-28s %14.6g %s\n", name, v, unit)
}

// check records one output check; a failed check makes the result
// incorrect but the run goes on, so every check is reported.
func (b *bench) check(name string, err error) {
	if err != nil {
		b.res.Correct = false
		fmt.Fprintf(b.log, "check %s: FAILED: %v\n", name, err)
		return
	}
	fmt.Fprintf(b.log, "check %s: ok\n", name)
}

// setupStats holds the per-set-up timings, in seconds, and the clock
// ticks the hypervisor stole during each set-up.
type setupStats struct {
	total, clusterStart, storeOpen []float64
	steal                          []int64
}

// quiet returns the median of one per-set-up timing over the half of the
// set-ups (rounded up) in which the hypervisor stole the least CPU time,
// earlier set-ups first among equals, as quietest does for slices.
func (st setupStats) quiet(xs []float64) float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(st.steal[a], st.steal[b]) })
	q := make([]float64, (len(idx)+1)/2)
	for i := range q {
		q[i] = xs[idx[i]]
	}
	return median(q)
}

// setUp builds the workload's system n times over, each time from
// scratch: system and cluster, strategy, servers and their stores, then
// one write of every key (and, on the durable workload, closing and
// recovering every store). Every build but the last is torn down again.
func (b *bench) setUp(d *driver, tr *tracer, n int) (*rig, setupStats, error) {
	var st setupStats
	var r *rig
	for i := 0; i < n; i++ {
		if r != nil {
			d.unbind()
			if err := r.close(); err != nil {
				return nil, st, err
			}
		}
		steal0, _ := cpuTicks()
		start := time.Now()
		b.rigs++
		var err error
		r, err = newRig(b.w, b.cfg.seed, tr, filepath.Join(b.dataRoot, strconv.Itoa(b.rigs)))
		if err != nil {
			return nil, st, fmt.Errorf("set-up: %w", err)
		}
		d.bind(r)
		err = d.preload()
		if err == nil && b.w.durable {
			d.unbind()
			if err = r.reopen(); err == nil {
				d.bind(r)
			}
		}
		if err != nil {
			d.unbind()
			return nil, st, errors.Join(fmt.Errorf("set-up: %w", err), r.close())
		}
		st.total = append(st.total, time.Since(start).Seconds())
		steal1, _ := cpuTicks()
		st.steal = append(st.steal, steal1-steal0)
		st.clusterStart = append(st.clusterStart, r.clusterStart.Seconds())
		st.storeOpen = append(st.storeOpen, r.storeOpen.Seconds())
	}
	fmt.Fprintf(b.log, "setup x%d: %v s, steal %v ticks\n", n, roundAll(st.total), st.steal)
	return r, st, nil
}

// finish runs the checks every window ends with, tears the rig down and
// adds the driver's operation counts to the result.
func (b *bench) finish(d *driver, r *rig, peak float64) error {
	b.check("load", checkLoad(r, peak))
	if b.w.durable {
		d.unbind()
		if err := r.reopen(); err != nil {
			return errors.Join(fmt.Errorf("reopening stores after the window: %w", err), r.close())
		}
		d.bind(r)
		if err := d.readBack(); err != nil {
			d.unbind()
			return errors.Join(err, r.close())
		}
	}
	b.check("read oracle", checkOracle(d))
	d.unbind()
	if err := r.close(); err != nil {
		return err
	}
	att, failed := d.totals()
	b.res.Attempted += att
	b.res.Failed += failed
	for _, s := range d.slots {
		if s.firstErr != nil {
			fmt.Fprintf(b.log, "failed operations, first: %v\n", s.firstErr)
			break
		}
	}
	return nil
}

func warmUpFor(dur time.Duration) time.Duration {
	return min(max(dur/10, 500*time.Millisecond), 2*time.Second)
}

// warmUp runs the closed loop untimed, so caches fill and lazy set-up
// finishes before timing.
func warmUp(d *driver, dur time.Duration) {
	d.run(dur, 1, nil)
}

// endToEnd measures every end-to-end metric on an untraced rig. Each
// figure but setup_s, live_heap_mb and peak_load is computed over the
// operations of the quieter half of the window's quarter-second slices
// (see quietest), pooled, so that time the hypervisor gives to other
// guests does not reach the result.
func (b *bench) endToEnd(dur time.Duration) error {
	d := newDriver(b.w, b.cfg.seed, nil)
	r, st, err := b.setUp(d, nil, setups)
	if err != nil {
		return err
	}
	warmUp(d, warmUpFor(dur))
	lg, err := newLatLog()
	if err != nil {
		d.unbind()
		return errors.Join(err, r.close())
	}
	defer lg.close()
	r.cluster.ResetLoadProfile()
	_, sn0 := r.diskCounters()
	steal0, total0 := cpuTicks()
	var snaps []snap
	d.lat, d.record = lg, true
	d.run(dur, sliceCount(dur), func() {
		sn := takeSnap()
		sn.at = time.Since(d.base)
		snaps = append(snaps, sn)
	})
	d.record = false
	peak := peakOf(r.cluster.LoadProfile())
	if steal1, total1 := cpuTicks(); total1 > total0 {
		fmt.Fprintf(b.log, "host steal during the window: %.1f%% of CPU time\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if b.w.durable {
		_, sn1 := r.diskCounters()
		fmt.Fprintf(b.log, "compactions per replica in the window: min %d\n", minDelta(sn0, sn1))
	}

	recs, err := lg.sorted()
	if err != nil {
		d.unbind()
		return errors.Join(err, r.close())
	}
	ss := split(snaps, recs)
	for i, s := range ss {
		f := pool(ss[i : i+1])
		fmt.Fprintf(b.log, "slice %d: n=%d ops/s=%.1f p50=%.4f ms p99=%.4f ms cpu=%.2f us/op steal=%d\n",
			i, f.ops, f.opsPerS, ms(f.p50), ms(f.p99), us(f.cpuPerOp), s.steal())
	}
	quiet := quietest(ss, quietShare)
	f := pool(quiet)
	fmt.Fprintf(b.log, "figures from the %d of %d slices with the least steal (%d ticks): n=%d operations (exact quantiles)\n",
		len(quiet), len(ss), f.steal, f.ops)
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	b.metric("ops_per_s", f.opsPerS, "ops/s")
	b.metric("p50_ms", ms(f.p50), "ms")
	b.metric("p99_ms", ms(f.p99), "ms")
	b.metric("cpu_us_per_op", us(f.cpuPerOp), "us")
	b.metric("alloc_bytes_per_op", f.allocBytes, "B/op")
	b.metric("allocs_per_op", f.mallocs, "count")
	b.metric("live_heap_mb", float64(mem.HeapAlloc)/(1<<20), "MiB")
	b.metric("peak_load", peak, "fraction")
	b.metric("setup_s", st.quiet(st.total), "s")
	return b.finish(d, r, peak)
}

// sliceCount cuts the window into slices of a quarter second.
func sliceCount(dur time.Duration) int { return max(int(dur/sliceLen), 2) }

// traced measures the per-layer metrics. It runs the workload twice, each
// time for half the window: once untraced and once with every layer
// boundary wrapped and traced, and reports the difference in throughput
// and CPU per operation between the two as the tracing overhead.
func (b *bench) traced(dur time.Duration) error {
	half := dur / 2
	tr := newTracer(traceSpanLimit)
	rate0, cpu0, err := b.untracedHalf(dur, half)
	if err != nil {
		return err
	}
	lc, err := b.tracedHalf(tr, dur, half)
	if err != nil {
		return err
	}
	spans := tr.spans()
	sum := summarize(spans)
	ops, writes := float64(sum.ops()), float64(sum.writes)
	rate1, cpu1 := ops/lc.elapsed.Seconds(), us(lc.cpu)/ops
	fmt.Fprintf(b.log, "traced %.2f s: %d spans, %d operations, %d with parented transport calls\n",
		lc.elapsed.Seconds(), sum.spans, sum.ops(), sum.opsWithChildren)
	fmt.Fprintf(b.log, "untraced: %.1f ops/s %.2f us cpu/op; traced: %.1f ops/s %.2f us cpu/op\n",
		rate0, cpu0, rate1, cpu1)

	per := func(x float64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	transport := sum.invokeTime + sum.frameTime
	calls := float64(sum.invokes + sum.frames)
	// Figures of a layer the workload does not run read 0.
	var invokeUS, frameUS, framesPerOp, open, storeBytes float64
	if lc.wire {
		frameUS, framesPerOp = per(us(transport), calls), per(calls, ops)
	} else {
		invokeUS = per(us(sum.invokeTime), float64(sum.invokes))
	}
	if b.w.durable {
		open = lc.setup.quiet(lc.setup.storeOpen)
		storeBytes = per(float64(lc.io.wchar), writes)
	}
	b.metric("core.pick_us", per(us(sum.pickTime), float64(sum.picks)), "us")
	b.metric("core.picks_per_op", per(float64(sum.picks), ops), "count")
	b.metric("sim.op_self_us", per(us(sum.opSelf), ops), "us")
	b.metric("sim.phases_per_op", per(float64(lc.phases), ops), "count")
	b.metric("sim.probes_per_op", per(float64(lc.probes), ops), "count")
	b.metric("sim.invoke_us", invokeUS, "us")
	b.metric("sim.items_per_frame", per(float64(sum.items), float64(sum.frames)), "count")
	b.metric("sim.cluster_start_s", lc.setup.quiet(lc.setup.clusterStart), "s")
	b.metric("wire.frame_us", frameUS, "us")
	b.metric("wire.frames_per_op", framesPerOp, "count")
	b.metric("wire.write_syscalls_per_op", per(float64(lc.io.syscw), ops), "count")
	b.metric("wire.read_syscalls_per_op", per(float64(lc.io.syscr), ops), "count")
	b.metric("wire.bytes_per_op", per(float64(lc.io.wchar), ops), "B")
	b.metric("store.apply_us", per(us(sum.applyTime), float64(sum.apply)), "us")
	b.metric("store.fsyncs_per_write", per(float64(lc.flushes), writes), "count")
	b.metric("store.records_per_fsync", per(float64(sum.apply), float64(lc.flushes)), "count")
	b.metric("store.snapshots", float64(lc.snapshots), "count")
	b.metric("store.open_s", open, "s")
	b.metric("store.bytes_written_per_write", storeBytes, "B")
	b.metric("self.core_us_per_op", per(us(sum.pickTime), ops), "us")
	b.metric("self.transport_us_per_op", per(max(0, us(transport-sum.applyTime)), ops), "us")
	b.metric("self.store_us_per_op", per(us(sum.applyTime), ops), "us")
	b.metric("trace.overhead_ops_pct", 100*(rate0-rate1)/rate0, "%")
	b.metric("trace.overhead_cpu_pct", 100*(cpu1-cpu0)/cpu0, "%")

	dir := filepath.Join(b.cfg.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, b.w.name+".csv.gz")
	if err := dumpSpans(path, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.log, "spans written to %s\n", path)
	return nil
}

// untracedHalf runs the workload untraced for half the window and returns
// its throughput and CPU per operation.
func (b *bench) untracedHalf(dur, half time.Duration) (opsPerS, cpuUS float64, err error) {
	d := newDriver(b.w, b.cfg.seed, nil)
	r, _, err := b.setUp(d, nil, 1)
	if err != nil {
		return 0, 0, err
	}
	warmUp(d, warmUpFor(dur))
	r.cluster.ResetLoadProfile()
	before, _ := d.totals()
	c0 := takeSnap()
	el := d.run(half, 1, nil)
	c1 := takeSnap()
	after, _ := d.totals()
	ops := float64(after - before)
	return ops / el.Seconds(), us(c1.cpu-c0.cpu) / ops, b.finish(d, r, peakOf(r.cluster.LoadProfile()))
}

// layerCounts is what the traced half counts outside the spans, as deltas
// over the traced window.
type layerCounts struct {
	elapsed, cpu       time.Duration
	io                 procIO
	flushes, snapshots int64
	phases, probes     int64
	wire               bool
	setup              setupStats
}

// tracedHalf runs the workload traced for half the window (or until the
// span buffer is full) and checks the probe counts.
func (b *bench) tracedHalf(tr *tracer, dur, half time.Duration) (layerCounts, error) {
	lc := layerCounts{}
	d := newDriver(b.w, b.cfg.seed, tr)
	r, st, err := b.setUp(d, tr, setups)
	if err != nil {
		return lc, err
	}
	lc.setup, lc.wire = st, r.wireClient != nil
	warmUp(d, warmUpFor(dur))
	r.cluster.ResetLoadProfile()
	r.probes.resetProbes()
	io0, ioErr := readProcIO()
	fl0, sn0 := r.diskTotals()
	c0 := takeSnap()
	tr.on.Store(true)
	lc.elapsed = d.run(half, 1, nil)
	tr.on.Store(false)
	c1 := takeSnap()
	fl1, sn1 := r.diskTotals()
	io1, err := readProcIO()
	if err = errors.Join(ioErr, err); err != nil {
		d.unbind()
		return lc, errors.Join(err, r.close())
	}
	lc.cpu = c1.cpu - c0.cpu
	lc.io = procIO{syscr: io1.syscr - io0.syscr, syscw: io1.syscw - io0.syscw, wchar: io1.wchar - io0.wchar}
	lc.flushes, lc.snapshots = fl1-fl0, sn1-sn0
	profile := r.cluster.LoadProfile()
	lc.phases = r.cluster.Phases()
	counted := make([]int64, len(r.probes.probes))
	for i := range counted {
		counted[i] = r.probes.probes[i].Load()
		lc.probes += counted[i]
	}
	b.check("probe counts", checkProbes(counted, profile, lc.phases))
	return lc, b.finish(d, r, peakOf(profile))
}

func minDelta(a, b []int64) int64 {
	m := int64(-1)
	for i := range a {
		if d := b[i] - a[i]; m < 0 || d < m {
			m = d
		}
	}
	return m
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1e4)) / 1e4
	}
	return out
}
