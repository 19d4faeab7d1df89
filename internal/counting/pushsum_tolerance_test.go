package counting

import (
	"math"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/runtime"
)

// The convergence tolerance is push-sum's only knob: the estimator has no
// termination proof, just "stop when the estimate moves less than tol for
// patience rounds". These tests pin the knob's contract on fair
// adversaries — the one model where the estimator's requirements hold.

// A tighter tolerance must buy accuracy: on fair churn the loose run may
// stop early, but the tight run's final estimate has to land within a
// fraction of a node of the truth, and it can never use fewer rounds than
// the loose run on the same adversary.
func TestPushSumToleranceControlsAccuracy(t *testing.T) {
	const n = 12
	for seed := int64(1); seed <= 4; seed++ {
		loose, err := dynet.NewTInterval(n, 1, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		tight, err := dynet.NewTInterval(n, 1, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		resLoose, err := PushSumEstimate(loose, 0, 1e-2, 3, 5000, runtime.RunSequential)
		if err != nil {
			t.Fatalf("seed=%d loose: %v", seed, err)
		}
		resTight, err := PushSumEstimate(tight, 0, 1e-8, 3, 5000, runtime.RunSequential)
		if err != nil {
			t.Fatalf("seed=%d tight: %v", seed, err)
		}
		if !resLoose.Converged || !resTight.Converged {
			t.Fatalf("seed=%d: converged loose=%v tight=%v", seed, resLoose.Converged, resTight.Converged)
		}
		if resTight.Rounds < resLoose.Rounds {
			t.Fatalf("seed=%d: tight tolerance stopped after %d rounds, loose after %d",
				seed, resTight.Rounds, resLoose.Rounds)
		}
		if err := math.Abs(resTight.Estimate - n); err > 0.25 {
			t.Fatalf("seed=%d: tight estimate %.4f off the truth %d by %.4f",
				seed, resTight.Estimate, n, err)
		}
	}
}

// At a fixed tolerance the estimate must stabilize on the truth across
// independent fair adversaries: fairness, not the specific churn draw, is
// what the convergence rests on.
func TestPushSumToleranceAcrossFairSeeds(t *testing.T) {
	const n = 9
	for seed := int64(1); seed <= 6; seed++ {
		net, err := dynet.NewTInterval(n, 1, 0.4, seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := PushSumEstimate(net, 0, 1e-6, 3, 5000, runtime.RunSequential)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed=%d: did not converge in %d rounds", seed, res.Rounds)
		}
		if got := math.Round(res.Estimate); got != n {
			t.Fatalf("seed=%d: estimate %.4f rounds to %g, want %d", seed, res.Estimate, got, n)
		}
	}
}

// Patience guards against premature stops: a single quiet round must not
// end the run when a longer patience window would keep refining. The
// patience-5 run can never stop before the patience-1 run.
func TestPushSumPatienceDelaysStop(t *testing.T) {
	const n = 10
	for seed := int64(1); seed <= 3; seed++ {
		a, err := dynet.NewTInterval(n, 1, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dynet.NewTInterval(n, 1, 0.3, seed)
		if err != nil {
			t.Fatal(err)
		}
		hasty, err := PushSumEstimate(a, 0, 1e-4, 1, 5000, runtime.RunSequential)
		if err != nil {
			t.Fatal(err)
		}
		careful, err := PushSumEstimate(b, 0, 1e-4, 5, 5000, runtime.RunSequential)
		if err != nil {
			t.Fatal(err)
		}
		if careful.Rounds < hasty.Rounds {
			t.Fatalf("seed=%d: patience 5 stopped after %d rounds, patience 1 after %d",
				seed, careful.Rounds, hasty.Rounds)
		}
	}
}
