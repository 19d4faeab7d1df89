package histtree

import (
	goruntime "runtime"
	"testing"

	"anondyn/internal/runtime"
)

// TestNonLeaderRoundAllocCeiling locks the amortized allocation budget of
// the non-leader hot path: Send plus absorb, round after round. Two
// processes exchange class messages on a shared tree for many rounds; each
// round interns one new class per process (the miss path), so the ceiling
// covers the chunks of the tree's nodes and red arena, and fails if either
// stops amortizing or the path starts allocating per message or per round
// (one allocation per process-round is twenty times the ceiling).
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

// TestCountAllocBytesPerClass bounds what a whole count allocates per
// class it interns: the tree's nodes and red edges, the leader's tables and
// the engine's buffers together. A static cycle of 128 interns 18,849
// classes, so a structure that copies itself as it grows, or keeps a
// second copy of the tree, exceeds the ceiling.
func TestCountAllocBytesPerClass(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const n = 128
	net := cycleNet(t, n)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	count, _, err := Count(net, 0, 3*n+10, seqEngine())
	goruntime.ReadMemStats(&after)
	if err != nil || count != n {
		t.Fatalf("Count = %d, %v; want %d", count, err, n)
	}
	// The same run again, to read its class count off its tree.
	procs := newProcs(n, 0)
	cfg := &runtime.Config{Net: net, Procs: procs, CanonKey: canonKey, MaxRounds: 3*n + 10, IntervalConnected: true}
	if _, _, ok, err := runtime.RunUntilOutput(cfg, 0, seqEngine()); err != nil || !ok {
		t.Fatalf("protocol run: ok %v, %v", ok, err)
	}
	classes := procs[0].(*leaderProc).tree.Len()
	perClass := float64(after.TotalAlloc-before.TotalAlloc) / float64(classes)
	t.Logf("%d classes, %.1f bytes allocated per class", classes, perClass)
	if perClass > 160 {
		t.Fatalf("count allocates %.1f bytes per interned class, want <= 160", perClass)
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
