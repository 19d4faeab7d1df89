package histtree

import (
	"testing"

	"anondyn/internal/runtime"
)

// TestNonLeaderRoundAllocCeiling locks the amortized allocation budget of
// the non-leader hot path: Send plus absorb, round after round. Two
// processes exchange delta views on a shared tree for many rounds; each
// round interns one new class per process (the miss path) and merges two
// messages, so the ceiling covers the amortized cost of every append the
// path performs — tree growth, arena growth, view growth, delta growth,
// and rebase snapshots — and fails if any of them stops amortizing (for
// example, a per-message snapshot or a per-round map would blow through
// it immediately: the pre-rework protocol spent ~14 allocations per
// process-round on snapshots alone).
func TestNonLeaderRoundAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const rounds = 400
	tree := New()
	a := newProc(tree, true)
	b := newProc(tree, false)
	avg := testing.AllocsPerRun(1, func() {
		for r := 0; r < rounds; r++ {
			ma := a.Send(0)
			mb := b.Send(0)
			a.Receive(r, []runtime.Message{mb})
			b.Receive(r, []runtime.Message{ma})
		}
	})
	perRound := avg / (2 * rounds)
	if perRound > 1.0 {
		t.Fatalf("non-leader round path: %.2f allocs per process-round, want <= 1.0 (total %v over %d rounds)",
			perRound, avg, rounds)
	}
}

// TestCanonAllocCeiling pins the canonicalization cost the engines pay per
// message: the uint64 canonical key must be allocation-free.
func TestCanonAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	msg := &viewDelta{cur: 3, hash: 0x1234abcd5678ef90, base: make([]uint64, 7)}
	var sinkKey uint64
	if avg := testing.AllocsPerRun(100, func() {
		sinkKey += canonKey(msg)
	}); avg != 0 {
		t.Fatalf("canonKey: %v allocs/op, want 0", avg)
	}
	_ = sinkKey
}
