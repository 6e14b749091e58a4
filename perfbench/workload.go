package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"bqs"
)

// workload is one named traffic mix against one cluster configuration.
// Each workload is the only one on which its layer does most of the work
// (see README.md), so an optimisation of that layer has one workload that
// exercises it and three that bypass it.
type workload struct {
	name     string
	keys     int     // key-space size; every key is written once during set-up
	clients  int     // closed-loop clients
	window   int     // operations each client keeps in flight; 1 = blocking client
	readFrac float64 // share of operations that are reads
	build    func(r *rig) error
	// durable marks the workload whose set-up closes and reopens every
	// store after the preload, and whose check reopens them again after
	// the window and reads every key back.
	durable bool
}

// The two blocking workloads run 60% reads, not 50%: a read takes one
// quorum phase and a write two, so under an even mix the median latency
// falls in the gap between the two and flipped by a third from one slice
// to the next.
//
// mpath-pick and durable-write-heavy run by hand only; BENCHMARK.json
// leaves them out. durable-write-heavy's fsync-bound figures follow the
// load other guests put on the shared disk, and they spread past every
// bound between runs minutes apart. mpath-pick's p99 follows the CPU time
// the hypervisor steals: its operations are long enough that a few
// descheduled milliseconds a second reach 1% of them.
var workloads = []*workload{
	{name: "mem-byz", keys: 1024, clients: 2, window: 1, readFrac: 0.6, build: buildMemByz},
	{name: "mpath-pick", keys: 256, clients: 2, window: 1, readFrac: 0.6, build: buildMPathPick},
	{name: "tcp-read-heavy", keys: 1024, clients: 2, window: 16, readFrac: 0.9, build: buildTCPReadHeavy},
	{name: "durable-write-heavy", keys: 256, clients: 2, window: 16, readFrac: 0.1, build: buildDurableWriteHeavy, durable: true},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// durableSnapshotBytes is the WAL size at which each replica of
// durable-write-heavy compacts. At the throughput this workload reaches on
// two cores every replica passes it several times in a one-second window,
// so compaction cost is part of every run.
const durableSnapshotBytes = 32 << 10

// rig is one built system under test: the cluster the clients drive plus
// whatever hosts its replicas (a TCP server, durable stores).
type rig struct {
	w       *workload
	seed    int64
	tr      *tracer // nil in an untraced run
	dataDir string  // root of the durable stores of this set-up

	sys     bqs.System // the unwrapped system, for the load checks
	b       int
	cluster *bqs.Cluster
	probes  *tracedTransport // the traced transport, for the probe-count check

	wireServer *bqs.WireServer
	wireClient *bqs.WireClient
	serveDone  chan error

	disks   []*bqs.DiskStore
	restart func() error // reopens the durable stores and rebuilds the cluster over them

	clusterStart time.Duration // time in the last NewCluster call
	storeOpen    time.Duration // time in the last round of OpenDiskStore calls
}

func newRig(w *workload, seed int64, tr *tracer, dataDir string) (*rig, error) {
	r := &rig{w: w, seed: seed, tr: tr, dataDir: dataDir}
	if err := w.build(r); err != nil {
		return nil, errors.Join(err, r.close())
	}
	return r, nil
}

// startCluster builds the cluster over sys, delivering probes through the
// transport tf makes, and times the NewCluster call.
func (r *rig) startCluster(sys bqs.System, b int, tf func([]*bqs.Server) bqs.Transport, opts ...bqs.ClusterOption) error {
	r.sys, r.b = sys, b
	n := sys.UniverseSize()
	opts = append([]bqs.ClusterOption{
		bqs.WithSeed(r.seed),
		bqs.WithTransport(func(servers []*bqs.Server) bqs.Transport { return r.wrapTransport(tf(servers), n) }),
	}, opts...)
	wrapped, err := r.wrapSystem(sys)
	if err != nil {
		return err
	}
	start := time.Now()
	c, err := bqs.NewCluster(wrapped, b, opts...)
	r.clusterStart = time.Since(start)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	r.cluster = c
	return nil
}

// inMemory is the stock lossless, zero-latency transport, installed
// through WithTransport in traced and untraced runs alike so both take the
// same code paths.
func (r *rig) inMemory(servers []*bqs.Server) bqs.Transport {
	return bqs.NewInMemoryTransport(servers, r.seed)
}

func buildMemByz(r *rig) error {
	sys, err := bqs.NewMaskingThreshold(13, 3)
	if err != nil {
		return err
	}
	if err := r.startCluster(sys, 3, r.inMemory); err != nil {
		return err
	}
	return r.cluster.InjectFault(bqs.ByzantineFabricate, 0, 1, 2)
}

func buildMPathPick(r *rig) error {
	sys, err := bqs.NewMPath(6, 1)
	if err != nil {
		return err
	}
	if err := r.startCluster(sys, 1, r.inMemory); err != nil {
		return err
	}
	if err := r.cluster.InjectFault(bqs.ByzantineFabricate, 7); err != nil {
		return err
	}
	return r.cluster.InjectFault(bqs.Crashed, 14)
}

func buildTCPReadHeavy(r *rig) error {
	sys, err := bqs.NewMGrid(4, 1)
	if err != nil {
		return err
	}
	n := sys.UniverseSize()
	replicas := make(map[int]*bqs.Server, n)
	for i := 0; i < n; i++ {
		replicas[i] = bqs.NewServer(i, bqs.WithStore(r.wrapStore(bqs.NewMemStore())))
	}
	replicas[5].SetBehavior(bqs.ByzantineFabricate)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.wireServer = bqs.NewWireServer(replicas)
	r.serveDone = make(chan error, 1)
	go func() { r.serveDone <- r.wireServer.Serve(lis) }()
	routes := make(map[int]string, n)
	for i := 0; i < n; i++ {
		routes[i] = lis.Addr().String()
	}
	if r.wireClient, err = bqs.DialWire(routes); err != nil {
		return err
	}
	wc := r.wireClient
	return r.startCluster(sys, 1, func([]*bqs.Server) bqs.Transport { return wc }, bqs.WithOptimalStrategy())
}

func buildDurableWriteHeavy(r *rig) error {
	sys, err := bqs.NewMGrid(4, 1)
	if err != nil {
		return err
	}
	r.restart = func() error {
		if err := r.openDisks(sys.UniverseSize()); err != nil {
			return err
		}
		disks := r.disks
		return r.startCluster(sys, 1, r.inMemory, bqs.WithStores(func(id int) (bqs.Store, error) {
			return r.wrapStore(disks[id]), nil
		}))
	}
	return r.restart()
}

// openDisks opens (and on the first call creates) one durable store per
// replica with the daemons' default fsync policy, timing the whole round.
func (r *rig) openDisks(n int) error {
	start := time.Now()
	disks := make([]*bqs.DiskStore, n)
	for i := range disks {
		d, err := bqs.OpenDiskStore(filepath.Join(r.dataDir, fmt.Sprintf("replica-%02d", i)),
			bqs.WithSnapshotThreshold(durableSnapshotBytes))
		if err != nil {
			for _, o := range disks[:i] {
				o.Close()
			}
			return err
		}
		disks[i] = d
	}
	r.storeOpen = time.Since(start)
	r.disks = disks
	return nil
}

// reopen closes the cluster, which closes every durable store it owns,
// then recovers every store from its directory and rebuilds the cluster.
func (r *rig) reopen() error {
	err := r.cluster.Close()
	r.cluster = nil
	if err != nil {
		return fmt.Errorf("closing stores: %w", err)
	}
	return r.restart()
}

// diskCounters returns each durable store's group-commit flush and
// compaction counts.
func (r *rig) diskCounters() (flushes, snapshots []int64) {
	for _, d := range r.disks {
		flushes = append(flushes, d.Flushes())
		snapshots = append(snapshots, d.Snapshots())
	}
	return flushes, snapshots
}

// diskTotals sums diskCounters over the stores.
func (r *rig) diskTotals() (flushes, snapshots int64) {
	fl, sn := r.diskCounters()
	for i := range fl {
		flushes += fl[i]
		snapshots += sn[i]
	}
	return flushes, snapshots
}

// close stops everything the rig started and waits for it.
func (r *rig) close() error {
	var errs []error
	if r.cluster != nil {
		errs = append(errs, r.cluster.Close())
	}
	if r.wireClient != nil {
		errs = append(errs, r.wireClient.Close())
	}
	if r.wireServer != nil {
		errs = append(errs, r.wireServer.Close())
		if err := <-r.serveDone; !errors.Is(err, bqs.ErrWireServerClosed) {
			errs = append(errs, err)
		}
	}
	if r.dataDir != "" {
		errs = append(errs, os.RemoveAll(r.dataDir))
	}
	return errors.Join(errs...)
}
