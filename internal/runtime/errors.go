package runtime

import (
	"fmt"
	"time"
)

func errIndex(i, n int) error {
	return fmt.Errorf("runtime: node index %d out of range [0,%d)", i, n)
}

func errNotOutputter(i int) error {
	return fmt.Errorf("runtime: process at node %d does not implement Outputter", i)
}

// ProcessPanicError reports that a Process panicked during a run. The round
// loop converts process panics into this error instead of crashing the
// harness: each shard recovers around each phase it runs, the run aborts
// the round, and every worker is joined before it returns.
type ProcessPanicError struct {
	// Node is the index of the panicking process.
	Node int
	// Round is the round in which the panic was raised.
	Round int
	// Value is the value passed to panic.
	Value any
	// Stack is the stack of the panicking call, captured at recover time.
	// It differs with the shard count (a worker goroutine's stack or the
	// caller's) and is meant for diagnostics, not comparison.
	Stack []byte
}

func (e *ProcessPanicError) Error() string {
	return fmt.Sprintf("runtime: process at node %d panicked in round %d: %v", e.Node, e.Round, e.Value)
}

// RoundDeadlineError reports that a single round exceeded
// Config.RoundDeadline. Rounds completed before the offending one are
// reported normally through the engines' round-count return value.
type RoundDeadlineError struct {
	// Round is the round that overran the deadline.
	Round int
	// Limit is the configured per-round deadline.
	Limit time.Duration
}

func (e *RoundDeadlineError) Error() string {
	return fmt.Sprintf("runtime: round %d exceeded the %v round deadline", e.Round, e.Limit)
}

// canceled wraps a context error so that every shard count reports
// cancellation with identical errors for the same schedule: errors.Is sees
// the underlying context.Canceled or context.DeadlineExceeded.
func canceled(r int, err error) error {
	return fmt.Errorf("runtime: run canceled before completing round %d: %w", r, err)
}
