package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bqs"
)

// corruptReads is a transport that answers every read probe with a planted
// value under the replica's real timestamp, so every replica vouches for
// it and the masking read returns it.
type corruptReads struct{ bqs.Transport }

func (c corruptReads) Invoke(ctx context.Context, server int, req bqs.Request) (bqs.Response, error) {
	resp, err := c.Transport.Invoke(ctx, server, req)
	if req.Op == bqs.OpRead && resp.OK {
		resp.Value.Value = "planted"
	}
	return resp, err
}

// oracleRun drives a Threshold(13,3) cluster through tf for a fixed number
// of operations and returns the oracle's verdict.
func oracleRun(t *testing.T, tf func([]*bqs.Server) bqs.Transport) error {
	t.Helper()
	w := &workload{name: "oracle", keys: 32, clients: 1, window: 1, readFrac: 0.5}
	sys, err := bqs.NewMaskingThreshold(13, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{w: w, seed: 1}
	if err := r.startCluster(sys, 3, tf); err != nil {
		t.Fatal(err)
	}
	defer r.close()
	d := newDriver(w, 1, nil)
	d.bind(r)
	defer d.unbind()
	if err := d.preload(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		d.step(d.slots[0])
	}
	if _, failed := d.totals(); failed != 0 {
		t.Fatalf("%d operations failed", failed)
	}
	return checkOracle(d)
}

func TestOracleCatchesPlantedWrongRead(t *testing.T) {
	honest := func(s []*bqs.Server) bqs.Transport { return bqs.NewInMemoryTransport(s, 1) }
	if err := oracleRun(t, honest); err != nil {
		t.Fatalf("honest cluster failed the oracle: %v", err)
	}
	planted := func(s []*bqs.Server) bqs.Transport { return corruptReads{honest(s)} }
	err := oracleRun(t, planted)
	if err == nil || !strings.Contains(err.Error(), `"planted"`) {
		t.Fatalf("planted wrong read passed the oracle: %v", err)
	}
}

func TestLoadBoundCatchesPlantedLoad(t *testing.T) {
	// Threshold(13,3): c = 10, so the bound is max{7/10, 10/13} = 10/13.
	if got, want := loadLowerBound(13, 3, 10), 10.0/13; got != want {
		t.Fatalf("bound %v, want %v", got, want)
	}
	// M-Path(6,1): c = 20, n = 36: max{3/20, 20/36} = 5/9.
	if got, want := loadLowerBound(36, 1, 20), 20.0/36; got != want {
		t.Fatalf("bound %v, want %v", got, want)
	}
	if err := checkLoadBound(10.0/13, 13, 3, 10); err != nil {
		t.Fatalf("load at the bound failed: %v", err)
	}
	if err := checkLoadBound(0.7, 13, 3, 10); err == nil {
		t.Fatal("planted load 0.7 below the bound 10/13 passed")
	}
	if err := checkLP(0.80, 0.75); err != nil {
		t.Fatalf("load within 10%% of L(Q) failed: %v", err)
	}
	if err := checkLP(0.85, 0.75); err == nil {
		t.Fatal("load 0.85 more than 10% above L(Q)=0.75 passed")
	}
}

func TestProbeCheck(t *testing.T) {
	profile := []float64{0.5, 1, 0.25, 0}
	if err := checkProbes([]int64{2, 4, 1, 0}, profile, 4); err != nil {
		t.Fatal(err)
	}
	if err := checkProbes([]int64{2, 4, 2, 0}, profile, 4); err == nil {
		t.Fatal("a probe the load profile did not count passed")
	}
}

// TestWorkloadsRunAndPassChecks runs every workload briefly in both modes,
// the one BENCHMARK.json leaves out too, and checks that each reports
// exactly the metrics BENCHMARK.json declares, with no failed operation
// and every output check passing.
func TestWorkloadsRunAndPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			t.Run(w.name, func(t *testing.T) {
				cfg := config{workload: w.name, seed: 7, seconds: 1, trace: trace, out: t.TempDir()}
				res, err := run(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %d: %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
						t.Errorf("trace %d: metric %s: got %+v, want unit %s", trace, m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}
