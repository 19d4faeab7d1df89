package chainnet

import (
	"context"

	"anondyn/internal/runtime"
	"anondyn/internal/trace"
)

// RecordTrace runs the full-information protocol on the network for a
// fixed number of rounds under the trace recorder (sequential engine, as
// recording requires) and returns the complete execution record. The run
// stops at the next round boundary once ctx is done, with an error wrapping
// ctx.Err().
//
// Comparing the leader transcript (node 0) of a Lemma 5 pair's two
// recordings shows byte-identical views through the indistinguishability
// horizon — the message-level form of Theorem 1.
func RecordTrace(ctx context.Context, nw *Network, rounds int) (*trace.Trace, error) {
	cfg := &runtime.Config{
		Net:       nw.Net,
		Procs:     newProcs(nw),
		Canon:     canon,
		CanonKey:  canonKey,
		MaxRounds: rounds,
	}
	rec, wrapped, err := trace.NewRecorder(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := runtime.RunSequentialCtx(ctx, wrapped); err != nil {
		return nil, err
	}
	return rec.Trace(), nil
}
