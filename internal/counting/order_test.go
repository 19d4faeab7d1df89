package counting

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"anondyn/internal/graph"
	"anondyn/internal/runtime"
)

// inboxLog forwards to its process and records every inbox it is handed.
// A message is valid only until its sender's next Send (runtime.Message),
// so the log keeps a copy of each one a sender reuses.
type inboxLog struct {
	runtime.Process
	inboxes [][]runtime.Message
}

func (l *inboxLog) Receive(r int, msgs []runtime.Message) {
	in := slices.Clone(msgs)
	for i, m := range in {
		if im, ok := m.(*incMsg); ok {
			c := *im
			in[i] = &c
		}
	}
	l.inboxes = append(l.inboxes, in)
	l.Process.Receive(r, msgs)
}

// logged returns l as a process with the optional interfaces of the
// process it logs, and no others.
func logged(l *inboxLog) runtime.Process {
	da, isDA := l.Process.(runtime.DegreeAware)
	out, isOut := l.Process.(runtime.Outputter)
	switch {
	case isDA && isOut:
		return struct {
			*inboxLog
			runtime.DegreeAware
			runtime.Outputter
		}{l, da, out}
	case isDA:
		return struct {
			*inboxLog
			runtime.DegreeAware
		}{l, da}
	case isOut:
		return struct {
			*inboxLog
			runtime.Outputter
		}{l, out}
	}
	return l
}

var errNotRun = errors.New("processes taken before the run")

// orderCase is one counting run whose processes the inbox-order test
// replays: count runs the algorithm on inst with the given engine.
type orderCase struct {
	name  string
	inst  *Instance
	count func(*Instance, Runner) error
}

func registryCase(algo string, inst *Instance) orderCase {
	return orderCase{algo + "/" + inst.Name, inst, func(inst *Instance, run Runner) error {
		_, err := RunAlgorithm(algo, inst, run)
		return err
	}}
}

func mustInstance(t *testing.T) func(*Instance, error) *Instance {
	return func(inst *Instance, err error) *Instance {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
}

// TestProcessesIgnoreInboxOrder replays every inbox of a real run of each
// process type in this package to fresh processes — in the engine's
// order, reversed, and shuffled twice — and requires equal states after
// every round. The engines' inbox order only makes runs deterministic; a
// process hears a multiset, so its state must not depend on that order.
// The float shares of the incremental counter and push-sum are where it
// could: a sum in delivery order rounds differently when the order
// changes.
func TestProcessesIgnoreInboxOrder(t *testing.T) {
	must := mustInstance(t)
	random, churn := must(RandomizedInstance(9, 2)), must(ChurnInstance(8, 3))
	restricted := must(RestrictedPD2Instance(9))
	cases := []orderCase{
		registryCase("star", must(StarInstance(6))),
		registryCase("idcount", random),
		registryCase("incremental", random),
		registryCase("incremental", churn),
		registryCase("upperbound", random),
		registryCase("oracle", restricted),
		registryCase("degreeoracle", restricted),
		registryCase("pushsum", churn),
		registryCase("pushsum", random),
		{"limited/" + random.Name, random, func(inst *Instance, run Runner) error {
			_, err := LimitedIDCount(inst.Net, inst.Leader, 2, inst.Horizon, run)
			return err
		}},
	}
	rng := rand.New(rand.NewSource(5))
	for _, c := range cases {
		// The run to replay, on the sequential engine.
		var procs []runtime.Process
		var logs []*inboxLog
		err := c.count(c.inst, func(cfg *runtime.Config) (int, error) {
			procs = cfg.Procs
			run := *cfg
			run.Procs = make([]runtime.Process, len(procs))
			logs = make([]*inboxLog, len(procs))
			for v, p := range procs {
				logs[v] = &inboxLog{Process: p}
				run.Procs[v] = logged(logs[v])
			}
			return runtime.RunSequential(&run)
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// Four fresh sets of the same processes, taken before any round.
		var trials [4][]runtime.Process
		for i := range trials {
			if err := c.count(c.inst, func(cfg *runtime.Config) (int, error) {
				trials[i] = cfg.Procs
				return 0, errNotRun
			}); !errors.Is(err, errNotRun) {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		rounds := len(logs[0].inboxes)
		for r := 0; r < rounds; r++ {
			g := c.inst.Net.Snapshot(r)
			for v := range procs {
				for i, trial := range trials {
					p := trial[v]
					if da, ok := p.(runtime.DegreeAware); ok {
						da.SetDegree(r, g.Degree(graph.NodeID(v)))
					}
					p.Send(r)
					inbox := slices.Clone(logs[v].inboxes[r])
					switch i {
					case 1:
						slices.Reverse(inbox)
					case 2, 3:
						rng.Shuffle(len(inbox), func(a, b int) { inbox[a], inbox[b] = inbox[b], inbox[a] })
					}
					p.Receive(r, inbox)
				}
				for i := 1; i < len(trials); i++ {
					if !reflect.DeepEqual(trials[i][v], trials[0][v]) {
						t.Fatalf("%s: node %d (%T) reached another state at round %d on a permuted inbox (trial %d)",
							c.name, v, procs[v], r, i)
					}
				}
			}
		}
		for v := range procs {
			if !reflect.DeepEqual(trials[0][v], procs[v]) {
				t.Fatalf("%s: node %d (%T): replaying the run's inboxes did not reproduce it", c.name, v, procs[v])
			}
		}
	}
}

// TestKeyDependsOnContentOnly checks that key hashes what a message says:
// equal messages built apart key alike, distinct messages of every type
// the package sends key apart, and nil and foreign messages key 0.
func TestKeyDependsOnContentOnly(t *testing.T) {
	equal := [][2]runtime.Message{
		{"hello", string([]byte("hello"))},
		{big.NewRat(2, 6), big.NewRat(1, 3)},
		{[2]float64{0.5, 1.0 / 3}, [2]float64{1.0 / 2, 1.0 / 3}},
		{distMsg{Dist: 2, MaxSeen: 3}, distMsg{Dist: 2, MaxSeen: 3}},
		{&incMsg{Share: 1.0 / 3, AlarmK: -1}, &incMsg{Share: 1.0 / 3, AlarmK: -1}},
		{idSetMsg{1, 2, 3}, idSetMsg(append([]int(nil), 1, 2, 3))},
	}
	for _, pair := range equal {
		if a, b := key(pair[0]), key(pair[1]); a != b {
			t.Fatalf("%#v and %#v keyed %#x and %#x", pair[0], pair[1], a, b)
		}
	}
	distinct := []runtime.Message{
		"hello", "L", "R", "m:1/3", "s:1/3",
		big.NewRat(1, 3), big.NewRat(2, 3), new(big.Rat),
		[2]float64{1, 2}, [2]float64{2, 1}, [2]float64{0, 0}, [2]float64{0.5, math.Inf(1)},
		distMsg{Dist: 1, MaxSeen: 2}, distMsg{Dist: 2, MaxSeen: 1}, distMsg{Dist: -1},
		&incMsg{Share: 0.5, AlarmK: -1}, &incMsg{Share: 0.5, AlarmK: 0}, &incMsg{Share: 0.25, AlarmK: -1},
		idSetMsg{}, idSetMsg{1}, idSetMsg{1, 2}, idSetMsg{2, 1}, idSetMsg{12},
	}
	seen := map[uint64]runtime.Message{}
	for _, m := range distinct {
		k := key(m)
		if prev, dup := seen[k]; dup {
			t.Fatalf("%#v and %#v share key %#x", prev, m, k)
		}
		seen[k] = m
	}
	if key(nil) != 0 || key(42) != 0 || key(2.5) != 0 {
		t.Fatal("nil or a foreign message has a nonzero key")
	}
}

// TestResultIgnoresKeySalt runs every registry algorithm under two salted
// versions of its own ordering key, which deliver every inbox in another
// order: each Config must set CanonKey, and the order must not change the
// Result.
func TestResultIgnoresKeySalt(t *testing.T) {
	must := mustInstance(t)
	random, churn := must(RandomizedInstance(9, 2)), must(ChurnInstance(8, 3))
	restricted := must(RestrictedPD2Instance(9))
	instances := map[string][]*Instance{
		"histtree":     {random},
		"idcount":      {random},
		"incremental":  {random, churn},
		"leaderstate":  {must(WorstCaseInstance(13))},
		"upperbound":   {random},
		"oracle":       {restricted},
		"degreeoracle": {restricted},
		"star":         {must(StarInstance(6))},
		"pushsum":      {churn, random},
	}
	salted := func(salt uint64) Runner {
		return func(cfg *runtime.Config) (int, error) {
			key := cfg.CanonKey
			if key == nil {
				return 0, errors.New("Config sets no CanonKey")
			}
			c := *cfg
			c.CanonKey = func(m runtime.Message) uint64 { return runtime.MixKey(key(m) ^ salt) }
			return runtime.RunSequential(&c)
		}
	}
	for _, a := range Registry() {
		if len(instances[a.Name]) == 0 {
			t.Errorf("%s: no instance to run it on", a.Name)
		}
		for _, inst := range instances[a.Name] {
			want, err := RunAlgorithm(a.Name, inst, salted(1))
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, inst.Name, err)
			}
			got, err := RunAlgorithm(a.Name, inst, salted(0x9e3779b97f4a7c15))
			if err != nil || got != want {
				t.Errorf("%s on %s: %+v, %v under one salt, %+v under the other", a.Name, inst.Name, got, err, want)
			}
		}
	}
}
