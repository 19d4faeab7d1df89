package multigraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
)

// figure3M returns the paper's Figure 3 multigraph M: two nodes, both with
// label set {1,2} at round 0 (s_0 = [0 0 2]).
func figure3M(t *testing.T) *Multigraph {
	t.Helper()
	m, err := New(2, [][]LabelSet{
		{SetOf(1, 2)},
		{SetOf(1, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// figure3MPrime returns the paper's Figure 3 multigraph M': four nodes, two
// with {1} and two with {2} at round 0 (s_0' = [2 2 0]).
func figure3MPrime(t *testing.T) *Multigraph {
	t.Helper()
	m, err := New(2, [][]LabelSet{
		{SetOf(1)},
		{SetOf(1)},
		{SetOf(2)},
		{SetOf(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := New(MaxK+1, nil); err == nil {
		t.Fatal("k too large should error")
	}
	if _, err := New(2, [][]LabelSet{{SetOf(1)}, {}}); err == nil {
		t.Fatal("ragged horizon should error")
	}
	if _, err := New(2, [][]LabelSet{{0}}); err == nil {
		t.Fatal("empty label set should error")
	}
	if _, err := New(2, [][]LabelSet{{SetOf(3)}}); err == nil {
		t.Fatal("label outside alphabet should error")
	}
}

func TestNewCopiesInput(t *testing.T) {
	rows := [][]LabelSet{{SetOf(1)}}
	m, err := New(2, rows)
	if err != nil {
		t.Fatal(err)
	}
	rows[0][0] = SetOf(2)
	got, err := m.LabelsAt(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != SetOf(1) {
		t.Fatal("New aliased caller's slice")
	}
}

func TestAccessors(t *testing.T) {
	m := figure3M(t)
	if m.K() != 2 || m.W() != 2 || m.Horizon() != 1 {
		t.Fatalf("K=%d W=%d Horizon=%d", m.K(), m.W(), m.Horizon())
	}
	s, err := m.LabelsAt(1, 0)
	if err != nil || s != SetOf(1, 2) {
		t.Fatalf("LabelsAt = (%v, %v)", s, err)
	}
	if _, err := m.LabelsAt(5, 0); err == nil {
		t.Fatal("bad node should error")
	}
	if _, err := m.LabelsAt(0, 9); err == nil {
		t.Fatal("bad round should error")
	}
}

func TestStateOf(t *testing.T) {
	m, err := New(2, [][]LabelSet{{SetOf(1), SetOf(2), SetOf(1, 2)}})
	if err != nil {
		t.Fatal(err)
	}
	s0, err := m.StateOf(0, 0)
	if err != nil || len(s0) != 0 {
		t.Fatalf("StateOf(0,0) = (%v, %v), want empty", s0, err)
	}
	s2, err := m.StateOf(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Equal(History{SetOf(1), SetOf(2)}) {
		t.Fatalf("StateOf(0,2) = %v", s2)
	}
	if _, err := m.StateOf(0, 4); err == nil {
		t.Fatal("round beyond horizon should error")
	}
	if _, err := m.StateOf(9, 0); err == nil {
		t.Fatal("bad node should error")
	}
}

func TestHistoryCounts(t *testing.T) {
	m := figure3MPrime(t)
	counts, err := m.HistoryCounts(1)
	if err != nil {
		t.Fatal(err)
	}
	// s_0' = [2 2 0]: two nodes with {1}, two with {2}, none with {1,2}.
	want := []int{2, 2, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if _, err := m.HistoryCounts(5); err == nil {
		t.Fatal("length beyond horizon should error")
	}
}

func TestFromHistoryCountsRoundTrip(t *testing.T) {
	counts := []int{1, 0, 2} // one {1}, two {1,2}
	m, err := FromHistoryCounts(2, 1, counts)
	if err != nil {
		t.Fatal(err)
	}
	if m.W() != 3 {
		t.Fatalf("W = %d, want 3", m.W())
	}
	back, err := m.HistoryCounts(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if back[i] != counts[i] {
			t.Fatalf("round trip = %v, want %v", back, counts)
		}
	}
}

func TestFromHistoryCountsErrors(t *testing.T) {
	if _, err := FromHistoryCounts(2, 1, []int{1, 2}); err == nil {
		t.Fatal("wrong count length should error")
	}
	if _, err := FromHistoryCounts(2, 1, []int{1, -1, 0}); err == nil {
		t.Fatal("negative count should error")
	}
	// Neither the node count nor the schedule's nodes × rounds may wrap.
	big := math.MaxInt/2 + 1
	if _, err := FromHistoryCounts(2, 1, []int{big, big, 0}); err == nil {
		t.Fatal("node count overflowing int accepted")
	}
	counts := make([]int, HistoryCount(2, 2))
	counts[4] = big
	if _, err := FromHistoryCounts(2, 2, counts); err == nil {
		t.Fatal("schedule of nodes × rounds overflowing int accepted")
	}
}

func TestFigure3Indistinguishable(t *testing.T) {
	// Figure 3: M (2 nodes) and M' (4 nodes) give the same leader state at
	// round 0: both produce |(1,[⊥])| = 2, |(2,[⊥])| = 2.
	m := figure3M(t)
	mp := figure3MPrime(t)
	vm, err := m.LeaderView(1)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := mp.LeaderView(1)
	if err != nil {
		t.Fatal(err)
	}
	if !vm.Equal(vp) {
		t.Fatalf("Figure 3 views differ:\n%s\n%s", vm.Canonical(), vp.Canonical())
	}
}

func TestLeaderObservationContents(t *testing.T) {
	m := figure3M(t)
	obs, err := m.LeaderObservation(0)
	if err != nil {
		t.Fatal(err)
	}
	emptyKey := History{}.Key()
	if obs[ObsKey{Label: 1, StateKey: emptyKey}] != 2 {
		t.Fatalf("obs = %v", obs)
	}
	if obs[ObsKey{Label: 2, StateKey: emptyKey}] != 2 {
		t.Fatalf("obs = %v", obs)
	}
	if _, err := m.LeaderObservation(9); err == nil {
		t.Fatal("bad round should error")
	}
}

func TestLeaderViewErrors(t *testing.T) {
	m := figure3M(t)
	if _, err := m.LeaderView(9); err == nil {
		t.Fatal("rounds beyond horizon should error")
	}
	if _, err := m.LeaderView(-1); err == nil {
		t.Fatal("negative rounds should error")
	}
}

func TestLeaderViewDistinguishesDifferentSchedules(t *testing.T) {
	a, err := New(2, [][]LabelSet{{SetOf(1)}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(2, [][]LabelSet{{SetOf(2)}})
	if err != nil {
		t.Fatal(err)
	}
	va, _ := a.LeaderView(1)
	vb, _ := b.LeaderView(1)
	if va.Equal(vb) {
		t.Fatal("distinct single-node schedules should be distinguishable")
	}
}

func TestRandomMultigraphValid(t *testing.T) {
	m, err := Random(3, 10, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if m.W() != 10 || m.Horizon() != 5 || m.K() != 3 {
		t.Fatalf("Random dims wrong: W=%d H=%d K=%d", m.W(), m.Horizon(), m.K())
	}
	for v := 0; v < m.W(); v++ {
		for r := 0; r < m.Horizon(); r++ {
			s, err := m.LabelsAt(v, r)
			if err != nil || !s.Valid(3) {
				t.Fatalf("invalid label set at (%d,%d): %v %v", v, r, s, err)
			}
		}
	}
	// Deterministic per seed.
	m2, err := Random(3, 10, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := m.LeaderView(5)
	vb, _ := m2.LeaderView(5)
	if !va.Equal(vb) {
		t.Fatal("Random not deterministic per seed")
	}
}

// randomViaNew is Random's original construction: one row per node, drawn
// row-major, validated and copied by New.
func randomViaNew(k, w, horizon int, seed int64) (*Multigraph, error) {
	rng := rand.New(rand.NewSource(seed))
	labels := make([][]LabelSet, w)
	for v := range labels {
		row := make([]LabelSet, horizon)
		for r := range row {
			row[r] = SymbolFromIndex(rng.Intn(SymbolCount(k)))
		}
		labels[v] = row
	}
	return New(k, labels)
}

func TestRandomMatchesNewConstruction(t *testing.T) {
	// redrawn is one multigraph redrawn in place for every case in turn,
	// so its cells grow (to 40×14) and then shrink.
	redrawn := new(Multigraph)
	for _, tc := range []struct {
		k, w, horizon int
		seed          int64
	}{
		{1, 3, 4, 1}, {2, 7, 5, 2}, {2, 40, 14, 3}, {3, 12, 1, 4},
		{16, 5, 9, 5}, {2, 6, 0, 6}, {2, 0, 5, 7}, {2, 0, 0, 8},
	} {
		got, err := Random(tc.k, tc.w, tc.horizon, tc.seed)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if err := redrawn.Redraw(tc.k, tc.w, tc.horizon, rand.NewSource(tc.seed)); err != nil {
			t.Fatalf("%+v: Redraw: %v", tc, err)
		}
		want, err := randomViaNew(tc.k, tc.w, tc.horizon, tc.seed)
		if err != nil {
			t.Fatalf("%+v: reference: %v", tc, err)
		}
		for _, got := range []*Multigraph{got, redrawn} {
			if got.K() != want.K() || got.W() != want.W() || got.Horizon() != want.Horizon() || len(got.cells) != len(want.cells) {
				t.Fatalf("%+v: k=%d w=%d horizon=%d cells=%d, want %d %d %d %d", tc,
					got.K(), got.W(), got.Horizon(), len(got.cells), want.K(), want.W(), want.Horizon(), len(want.cells))
			}
			for v := 0; v < want.W(); v++ {
				for r := 0; r < want.Horizon(); r++ {
					a, _ := got.LabelsAt(v, r)
					b, _ := want.LabelsAt(v, r)
					if a != b {
						t.Fatalf("%+v: L(%d,%d) = %v, want %v", tc, v, r, a, b)
					}
				}
			}
		}
	}
	for _, bad := range []struct{ k, w, horizon int }{
		{0, 3, 3}, {-1, 3, 3}, {MaxK + 1, 3, 3}, {0, 0, 0}, {2, -1, 3}, {2, 3, -1},
	} {
		if _, err := Random(bad.k, bad.w, bad.horizon, 1); err == nil {
			t.Fatalf("Random(%d, %d, %d) accepted", bad.k, bad.w, bad.horizon)
		}
		if err := redrawn.Redraw(bad.k, bad.w, bad.horizon, rand.NewSource(1)); err == nil {
			t.Fatalf("Redraw(%d, %d, %d) accepted", bad.k, bad.w, bad.horizon)
		}
	}
}

// scriptedSource replays a fixed list of Int63 values, cyclically, and
// counts the calls.
type scriptedSource struct {
	vals  []int64
	calls int
}

func (s *scriptedSource) Int63() int64 {
	v := s.vals[s.calls%len(s.vals)]
	s.calls++
	return v
}

func (s *scriptedSource) Seed(int64) { panic("scriptedSource: Seed") }

// TestFillSymbolsMatchesIntn drives fillSymbols with Int63 values whose
// candidates lie above Int31n's bound, a branch no seeded source reaches
// in practice (2 in 2^31 per draw for n = 3), mixed with ordinary values.
// It must give rand.New(src).Intn(n)'s values from as many Int63 calls.
func TestFillSymbolsMatchesIntn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int32{1, 3, 7, 65535} {
		bound := int64(intnBound(n))
		var vals []int64
		// The top candidates: for n = 1 all accepted, else rejected.
		for c := bound + 1; c < 1<<31 && c <= bound+4; c++ {
			vals = append(vals, c<<32, c<<32|0xffffffff)
		}
		vals = append(vals, 1<<63-1, bound<<32, bound<<32|0xffffffff, 0, 1<<32, int64(n)<<32)
		for i := 0; i < 40; i++ {
			vals = append(vals, rng.Int63())
			if i%5 == 0 {
				vals = append(vals, 1<<63-1, 1<<63-1) // a run of rejections
			}
		}
		a, b := &scriptedSource{vals: vals}, &scriptedSource{vals: vals}
		got := make([]LabelSet, 3*len(vals))
		fillSymbols(got, a, n)
		ref := rand.New(b)
		for i, s := range got {
			if want := SymbolFromIndex(ref.Intn(int(n))); s != want {
				t.Fatalf("n=%d draw %d: %v, Intn gives %v", n, i, s, want)
			}
		}
		if a.calls != b.calls {
			t.Fatalf("n=%d: %d Int63 calls, Intn makes %d", n, a.calls, b.calls)
		}
	}
}

// TestRandomRowsAreCapped checks that the rows the accessor cuts from
// Random's one backing array cannot grow into each other.
func TestRandomRowsAreCapped(t *testing.T) {
	m, err := Random(2, 4, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < m.W(); v++ {
		if row := m.row(v); len(row) != m.Horizon() || cap(row) != len(row) {
			t.Fatalf("row %d: cap %d, len %d", v, cap(row), len(row))
		}
	}
}

func TestToPD2StructureAndDistances(t *testing.T) {
	m, err := Random(2, 6, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, layout, err := m.ToPD2()
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 1+2+6 {
		t.Fatalf("N = %d, want 9", d.N())
	}
	// The transformed graph is in G(PD)_2: leader at 0, relays at 1,
	// W nodes at 2, across all rounds.
	dist, err := dynet.VerifyPersistentDistance(d, layout.Leader, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, relay := range layout.V1 {
		if dist[relay] != 1 {
			t.Fatalf("relay %d at distance %d", relay, dist[relay])
		}
	}
	for _, w := range layout.V2 {
		if dist[w] != 2 {
			t.Fatalf("W node %d at distance %d", w, dist[w])
		}
	}
	if err := dynet.VerifyIntervalConnectivity(d, 4); err != nil {
		t.Fatal(err)
	}
}

func TestToPD2ClampsBeyondHorizon(t *testing.T) {
	m := figure3M(t)
	d, _, err := m.ToPD2()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Snapshot(0).Equal(d.Snapshot(100)) {
		t.Fatal("rounds beyond the horizon should repeat the final topology")
	}
	if !d.Snapshot(-1).Equal(d.Snapshot(0)) {
		t.Fatal("negative rounds should clamp to 0")
	}
}

func TestToPD2ZeroHorizon(t *testing.T) {
	m, err := New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.ToPD2(); err == nil {
		t.Fatal("zero-horizon transform should error")
	}
}

func TestFromPD2RoundTrip(t *testing.T) {
	m, err := Random(2, 5, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	d, layout, err := m.ToPD2()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromPD2(d, layout.Leader, layout.V1, layout.V2, 3)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := m.LeaderView(3)
	vb, _ := back.LeaderView(3)
	if !va.Equal(vb) {
		t.Fatal("FromPD2(ToPD2(m)) view differs from m")
	}
	for v := 0; v < m.W(); v++ {
		for r := 0; r < 3; r++ {
			a, _ := m.LabelsAt(v, r)
			b, _ := back.LabelsAt(v, r)
			if a != b {
				t.Fatalf("label mismatch at (%d,%d): %v vs %v", v, r, a, b)
			}
		}
	}
}

func TestFromPD2Errors(t *testing.T) {
	m := figure3M(t)
	d, layout, err := m.ToPD2()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromPD2(d, layout.Leader, nil, layout.V2, 1); err == nil {
		t.Fatal("empty V1 should error")
	}
	if _, err := FromPD2(d, layout.Leader, layout.V1, layout.V2, 0); err == nil {
		t.Fatal("zero rounds should error")
	}
	// Wrong relay set: leader not connected to claimed relay.
	if _, err := FromPD2(d, layout.Leader, []graph.NodeID{3, 4}, layout.V2, 1); err == nil {
		t.Fatal("wrong relays should error")
	}
	// A V2 node adjacent to something outside V1 must be rejected: feed a
	// graph where a W node touches the leader directly.
	bad := dynet.NewFunc(d.N(), func(int) *graph.Graph {
		g := d.Snapshot(0).Clone()
		if err := g.AddEdge(layout.Leader, layout.V2[0]); err != nil {
			t.Fatal(err)
		}
		return g
	})
	if _, err := FromPD2(bad, layout.Leader, layout.V1, layout.V2, 1); err == nil {
		t.Fatal("V2 node adjacent to leader should error")
	}
}

// Property: FromHistoryCounts always produces a multigraph whose
// HistoryCounts round-trips, for random small count vectors.
func TestFromHistoryCountsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		const k, length = 2, 2
		want := HistoryCount(length, k)
		counts := make([]int, want)
		for i := 0; i < want && i < len(raw); i++ {
			counts[i] = int(raw[i] % 4)
		}
		m, err := FromHistoryCounts(k, length, counts)
		if err != nil {
			return false
		}
		back, err := m.HistoryCounts(length)
		if err != nil {
			return false
		}
		for i := range counts {
			if back[i] != counts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the Lemma 1 transformation round-trips losslessly for random
// schedules and alphabets.
func TestToPD2RoundTripProperty(t *testing.T) {
	f := func(seed int64, rawK, rawW uint8) bool {
		k := int(rawK%3) + 1
		w := int(rawW%6) + 1
		m, err := Random(k, w, 3, seed)
		if err != nil {
			return false
		}
		d, layout, err := m.ToPD2()
		if err != nil {
			return false
		}
		back, err := FromPD2(d, layout.Leader, layout.V1, layout.V2, 3)
		if err != nil {
			return false
		}
		for v := 0; v < w; v++ {
			for r := 0; r < 3; r++ {
				a, _ := m.LabelsAt(v, r)
				b, _ := back.LabelsAt(v, r)
				if a != b {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
