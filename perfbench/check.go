package main

import (
	"fmt"
	"math"
	"slices"

	"bqs"
)

// The output checks. Each compares what the engine reports against a
// figure the benchmark computes itself.

// loadLowerBound is Theorem 4.1's lower bound on the load of a b-masking
// quorum system over n servers whose smallest quorum has c servers:
// max{(2b+1)/c, c/n}.
func loadLowerBound(n, b, c int) float64 {
	return math.Max(float64(2*b+1)/float64(c), float64(c)/float64(n))
}

// checkLoadBound fails when the measured peak load is below Theorem 4.1's
// bound, which no quorum system can beat.
func checkLoadBound(peak float64, n, b, c int) error {
	if bound := loadLowerBound(n, b, c); peak < bound-1e-9 {
		return fmt.Errorf("peak load %.4f below Theorem 4.1 bound %.4f (n=%d b=%d c=%d)", peak, bound, n, b, c)
	}
	return nil
}

// checkLP fails when the measured peak load strays more than 10% from the
// cluster's LP optimum L(Q), which its optimal strategy should realise.
func checkLP(peak, lq float64) error {
	if math.IsNaN(lq) || math.Abs(peak-lq) > 0.1*lq {
		return fmt.Errorf("peak load %.4f not within 10%% of the LP load L(Q)=%.4f", peak, lq)
	}
	return nil
}

// checkProbes fails unless the probes the transport wrapper counted per
// server equal the quorum accesses Cluster.LoadProfile reports: entry i of
// the profile times the phase count.
func checkProbes(counted []int64, profile []float64, phases int64) error {
	if len(counted) != len(profile) {
		return fmt.Errorf("probe counts cover %d servers, load profile %d", len(counted), len(profile))
	}
	for i, got := range counted {
		if want := int64(math.Round(profile[i] * float64(phases))); got != want {
			return fmt.Errorf("server %d: transport saw %d probes, load profile says %d", i, got, want)
		}
	}
	return nil
}

// checkOracle fails when any read returned something other than the last
// acknowledged write to its key.
func checkOracle(d *driver) error {
	var n int64
	first := ""
	for _, s := range d.slots {
		n += s.mismatches
		if first == "" {
			first = s.firstMismatch
		}
	}
	if n > 0 {
		return fmt.Errorf("%d reads disagree with the last acknowledged write, first: %s", n, first)
	}
	return nil
}

// checkLoad runs the load checks that apply to the rig: Theorem 4.1
// everywhere, and the LP check where an optimal strategy is installed.
func checkLoad(r *rig, peak float64) error {
	p, ok := r.sys.(bqs.Parameterized)
	if !ok {
		return fmt.Errorf("%s does not report its smallest quorum", r.sys.Name())
	}
	if err := checkLoadBound(peak, r.sys.UniverseSize(), r.b, p.MinQuorumSize()); err != nil {
		return err
	}
	if lq := r.cluster.StrategyLoad(); !math.IsNaN(lq) {
		return checkLP(peak, lq)
	}
	return nil
}

func peakOf(profile []float64) float64 {
	if len(profile) == 0 {
		return 0
	}
	return slices.Max(profile)
}
