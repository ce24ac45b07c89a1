package rbcast

import (
	"errors"
	"fmt"
)

// ErrDeadline reports that a run was stopped by its context — a wall-clock
// bound independent of Config.MaxRounds — before the protocol quiesced. The
// Result returned alongside an error wrapping ErrDeadline is the *partial*
// state at the round boundary where the cancellation was observed: decided
// nodes keep their decisions, Undecided means "not yet" rather than
// "never", and Quiesced is false. Errors wrapping ErrDeadline also wrap the
// context's own error, so errors.Is distinguishes a deadline
// (context.DeadlineExceeded) from an explicit cancel (context.Canceled).
var ErrDeadline = errors.New("rbcast: deadline exceeded")

// PanicError is the failure recorded for a job whose scenario panicked.
// The worker recovers it, so a panic fails only the jobs of its execution
// unit (see RunSweepJobs) — the daemon, the batch, and every other job are
// unaffected — while the captured stack preserves the evidence a crash
// would have printed.
type PanicError struct {
	// Index is the job's position in the batch; negative for a panic
	// outside a batch (a single synchronous run).
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace (runtime/debug.Stack).
	Stack []byte
}

// Error renders the panic value; the stack is carried separately so logs
// can choose whether to spell out all of it.
func (e *PanicError) Error() string {
	if e.Index < 0 {
		return fmt.Sprintf("rbcast: scenario panicked: %v", e.Value)
	}
	return fmt.Sprintf("rbcast: job %d panicked: %v", e.Index, e.Value)
}
