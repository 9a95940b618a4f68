package core

import "time"

// queryConfig is the per-query configuration QueryContext resolves from the
// session options plus the caller's QueryOptions. opts starts as a copy of
// the session's resolved Options, so a query inherits every session default
// it does not override.
type queryConfig struct {
	opts    Options
	timeout time.Duration
	explain bool
	trace   bool
}

// QueryOption overrides one session option for a single QueryContext call.
type QueryOption func(*queryConfig)

// WithStrategy forces the cleaning strategy for this query only (the session
// default usually comes from Options.Strategy).
func WithStrategy(st Strategy) QueryOption {
	return func(c *queryConfig) { c.opts.Strategy = st }
}

// WithWorkers bounds this query's intra-query parallelism (parallel filter,
// hash-join build/probe, theta-join detection). n <= 0 keeps the session
// setting; 1 forces sequential execution. Results are identical for any
// setting.
func WithWorkers(n int) QueryOption {
	return func(c *queryConfig) {
		if n > 0 {
			c.opts.Workers = n
		}
	}
}

// WithoutCleaning executes this query over the dirty data unchanged — no
// relaxation, no repairs, no write-backs.
func WithoutCleaning() QueryOption {
	return func(c *queryConfig) { c.opts.DisableCleaning = true }
}

// WithExplain plans the query without executing it: the returned Rows carry
// the plan string and enumerate no tuples, and no cleaning work runs.
func WithExplain() QueryOption {
	return func(c *queryConfig) { c.explain = true }
}

// WithTimeout derives a deadline for this query from the caller's context.
// On expiry the query aborts mid-clean and returns an error wrapping
// context.DeadlineExceeded; the session state is untouched (the query's
// private overlay is dropped, no repairs publish).
func WithTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.timeout = d }
}

// WithTrace records a span tree for this query — parse, plan, engine
// operators with row counts, violation detection, repair, the cost-model
// decision with its inequality operands, and the writer's publish/WAL path —
// retrievable from Rows.Trace. Queries without the option
// (and not sampled via Options.TraceSampleRate) pay nothing.
func WithTrace() QueryOption {
	return func(c *queryConfig) { c.trace = true }
}
