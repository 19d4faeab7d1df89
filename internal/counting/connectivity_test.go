package counting

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"anondyn/internal/dynet"
	"anondyn/internal/graph"
	"anondyn/internal/histtree"
)

// exactCounters are the counters that need 1-interval connectivity and
// leave its check to the engine.
var exactCounters = []struct {
	name  string
	count func(net dynet.Dynamic, run Runner) (int, int, error)
}{
	{"histtree", func(net dynet.Dynamic, run Runner) (int, int, error) {
		return histtree.Count(net, 0, 100, run)
	}},
	{"incremental", func(net dynet.Dynamic, run Runner) (int, int, error) {
		return IncrementalCount(net, 0, IncrementalRounds(3*net.N()), run)
	}},
	{"idcount", func(net dynet.Dynamic, run Runner) (int, int, error) {
		return IDCount(net, 0, 100, run)
	}},
}

// pathUntil is a 4-node path for rounds before cut and edgeless from it on.
func pathUntil(cut int) dynet.Dynamic {
	const n = 4
	connected, empty := graph.Path(n), graph.New(n)
	return dynet.NewFunc(n, func(r int) *graph.Graph {
		if r < cut {
			return connected
		}
		return empty
	})
}

// TestExactCountersFailAtDisconnectedRound: a network that disconnects
// before the counter terminates fails the count with an error naming the
// first disconnected round, on both engines.
func TestExactCountersFailAtDisconnectedRound(t *testing.T) {
	const cut = 2
	for _, c := range exactCounters {
		for name, run := range engines() {
			_, _, err := c.count(pathUntil(cut), run)
			var ce *dynet.ConnectivityError
			if !errors.As(err, &ce) || ce.Round != cut {
				t.Errorf("%s/%s: error %v, want a *dynet.ConnectivityError at round %d", c.name, name, err, cut)
				continue
			}
			if want := fmt.Sprintf("round %d is disconnected", cut); !strings.Contains(err.Error(), want) {
				t.Errorf("%s/%s: error text %q does not contain %q", c.name, name, err, want)
			}
		}
	}
}

// TestExactCountersIgnoreRoundsAfterTermination states the intended
// reading of the model: a counter that has terminated claims nothing about
// later rounds, so a network that disconnects only after the termination
// round counts as if it stayed connected.
func TestExactCountersIgnoreRoundsAfterTermination(t *testing.T) {
	for _, c := range exactCounters {
		for name, run := range engines() {
			count, rounds, err := c.count(pathUntil(1<<30), run)
			if err != nil || count != 4 {
				t.Fatalf("%s/%s on the connected path: count %d, %v", c.name, name, count, err)
			}
			gotCount, gotRounds, err := c.count(pathUntil(rounds), run)
			if err != nil || gotCount != count || gotRounds != rounds {
				t.Errorf("%s/%s, disconnected from round %d on: count %d in %d rounds, %v; want %d in %d rounds",
					c.name, name, rounds, gotCount, gotRounds, err, count, rounds)
			}
		}
	}
}
