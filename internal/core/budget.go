// Retry budgets: the client-side brake that keeps the adaptation
// machinery's retries from amplifying an overload into a storm.
//
// Every GlobalPtr carries a token bucket. A budget-charged retry — one
// the settle loop asked for after a retryable failure (transport error,
// FaultUnavailable, FaultNotApplicable) — draws one token; every
// successful reply refills a configured fraction of a token. The retry
// rate is therefore bounded *relative to goodput*: a healthy service
// earns the right to occasional retries, a collapsing one stops being
// hammered once the burst allowance drains. Migration chases
// (FaultMoved, refresh-confirmed FaultNoObject) are authoritative
// redirects, not guesses against an overloaded endpoint, and stay
// budget-free; permanent and resource-class failures never retry at
// all.
//
// When the bucket is dry the invocation fails with a typed
// *errs.BudgetExhausted carrying the code of the failure that wanted
// the retry; /statusz reports each GP's live token count and /varz the
// per-code exhaustion counters.
package core

import (
	"sync"

	"openhpcxx/internal/errs"
)

// RetryBudgetConfig parameterizes a GP's retry token bucket.
type RetryBudgetConfig struct {
	// MaxTokens is the bucket capacity — the burst of retries allowed
	// before goodput has to pay for more. New buckets start full.
	MaxTokens float64
	// Ratio is the fraction of a token earned per successful reply;
	// steady-state retry rate is bounded at Ratio x goodput.
	Ratio float64
	// Disabled switches budgeting off for this GP: every retryable
	// failure retries, as before PR 7 (Figure E1's storm baseline).
	Disabled bool
}

// DefaultRetryBudget is the budget new GPs start with: a burst of 16
// retries, re-earned at one token per ten successes.
var DefaultRetryBudget = RetryBudgetConfig{MaxTokens: 16, Ratio: 0.1}

// fill normalizes a config so zero values mean the defaults.
func (c RetryBudgetConfig) fill() RetryBudgetConfig {
	if c.MaxTokens <= 0 {
		c.MaxTokens = DefaultRetryBudget.MaxTokens
	}
	if c.Ratio <= 0 {
		c.Ratio = DefaultRetryBudget.Ratio
	}
	return c
}

// retryBudget is the live token bucket. A nil *retryBudget means
// budgeting is disabled (every retry allowed), so the hot path pays one
// nil check when off.
type retryBudget struct {
	mu        sync.Mutex
	tokens    float64
	cfg       RetryBudgetConfig
	exhausted uint64
}

func newRetryBudget(cfg RetryBudgetConfig) *retryBudget {
	if cfg.Disabled {
		return nil
	}
	cfg = cfg.fill()
	return &retryBudget{tokens: cfg.MaxTokens, cfg: cfg}
}

// success credits the bucket for one successful reply.
func (b *retryBudget) success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.cfg.Ratio
	if b.tokens > b.cfg.MaxTokens {
		b.tokens = b.cfg.MaxTokens
	}
	b.mu.Unlock()
}

// allow draws one token for a retry; false means the bucket is dry and
// the retry must not happen.
func (b *retryBudget) allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	b.exhausted++
	return false
}

// snapshot reports the live state for /statusz.
func (b *retryBudget) snapshot() (tokens float64, cfg RetryBudgetConfig, exhausted uint64) {
	if b == nil {
		return 0, RetryBudgetConfig{Disabled: true}, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens, b.cfg, b.exhausted
}

// SetRetryBudget replaces this GP's retry budget (a fresh, full bucket
// under the given config; Disabled switches budgeting off). Invocations
// already in flight keep drawing from the bucket they started with.
func (g *GlobalPtr) SetRetryBudget(cfg RetryBudgetConfig) {
	b := newRetryBudget(cfg)
	g.mu.Lock()
	g.budget = b
	g.mu.Unlock()
}

// budgetRef reads the GP's current bucket.
func (g *GlobalPtr) budgetRef() *retryBudget {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.budget
}

// retryAdmit is the gate between the settle loop's "retry this" and the
// retry actually happening. Chases (charged=false: FaultMoved,
// refresh-confirmed FaultNoObject) pass freely — they follow an
// authoritative redirect. Charged retries must carry a retryable (or
// hedgeable) class and draw a budget token; a permanent or resource
// class stops the loop with the failure itself, and a dry bucket stops
// it with a typed *errs.BudgetExhausted naming the denied code.
func (g *GlobalPtr) retryAdmit(serr error, charged bool) (stop bool, out error) {
	if !charged {
		return false, nil
	}
	switch errs.ClassOf(serr) {
	case errs.ClassRetryable, errs.ClassHedgeable:
	default:
		return true, serr
	}
	b := g.budgetRef()
	if b == nil {
		return false, nil
	}
	if b.allow() {
		g.host.rt.retryAttempts.Inc()
		return false, nil
	}
	code := errs.CodeOf(serr)
	g.host.rt.exhaustedCounter(code).Inc()
	g.host.rt.recordEvent("retry-budget", g.Object(), "context "+g.host.name+": budget dry, not retrying "+code.String())
	return true, &errs.BudgetExhausted{Code: code, Err: serr}
}
