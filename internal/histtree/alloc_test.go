package histtree

import (
	"testing"

	"anondyn/internal/runtime"
)

// TestNonLeaderRoundAllocCeiling locks the amortized allocation budget of
// the non-leader hot path: Send plus absorb, round after round. Two
// processes exchange class messages on a shared tree for many rounds; each
// round interns one new class per process (the miss path), so the ceiling
// covers the amortized growth of the tree's nodes, intern index and red
// arena, and fails if any of them stops amortizing or the path starts
// allocating per message or per round (one allocation per process-round
// is twenty times the ceiling).
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
	if perRound > 0.05 {
		t.Fatalf("non-leader round path: %.4f allocs per process-round, want <= 0.05 (total %v over %d rounds)",
			perRound, avg, rounds)
	}
}

// TestCanonAllocCeiling pins the canonicalization cost the engines pay per
// message: the uint64 canonical key must be allocation-free.
func TestCanonAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	msg := &classMsg{cur: 3, hash: 0x1234abcd5678ef90}
	var sinkKey uint64
	if avg := testing.AllocsPerRun(100, func() {
		sinkKey += canonKey(msg)
	}); avg != 0 {
		t.Fatalf("canonKey: %v allocs/op, want 0", avg)
	}
	_ = sinkKey
}
