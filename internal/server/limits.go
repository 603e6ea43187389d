package server

import (
	"math"
	"sync"
	"time"
)

// Per-client admission control: a submission token bucket (rate limit)
// plus quotas on in-flight submissions, interpreted-instruction spend,
// and per-submission module footprint. Over-limit requests are rejected
// with 429 and a Retry-After estimating when the relevant bucket refills,
// counted under dp_jobs_rejected_total{reason="ratelimit"|"quota"}.
//
// The instruction quota is post-paid: admission requires a non-negative
// balance and each finished job debits what it actually executed, so a
// client can overdraw by at most one job and then waits out the debt.
// Pre-paying would need a cost estimate before the analysis runs — which
// is exactly the thing the analysis computes.

// Quotas configures per-client admission control: a submission rate, an
// in-flight cap, an instruction budget and a module-footprint cap. The zero
// value disables every limit (open single-node deployments and tests are
// unaffected).
type Quotas struct {
	// SubmitRate is the steady-state submissions per second one client may
	// make (0 = unlimited).
	SubmitRate float64
	// SubmitBurst is the submission bucket capacity (0 = max(1,
	// ceil(4×SubmitRate)), so short bursts above the steady rate pass).
	SubmitBurst int
	// MaxInflight caps a client's accepted-but-unfinished jobs
	// (0 = unlimited).
	MaxInflight int
	// InstrRate refills a client's instruction budget, in interpreted IR
	// statements per second (0 = unlimited). The budget holds at most 10 s
	// of it.
	InstrRate float64
	// MaxModuleBytes caps one serialized-module submission's payload for a
	// client, before base64 decoding counts against the codec limits
	// (0 = no per-client cap; the codec's own limits still apply).
	MaxModuleBytes int
}

func (q Quotas) withDefaults() Quotas {
	if q.SubmitRate > 0 && q.SubmitBurst <= 0 {
		q.SubmitBurst = int(math.Max(1, math.Ceil(4*q.SubmitRate)))
	}
	return q
}

// instrBurst is the instruction bucket's capacity: 10 s of InstrRate.
func (q Quotas) instrBurst() float64 { return 10 * q.InstrRate }

// enabled reports whether any limit is configured; a disabled limiter is
// never consulted, so the open configuration costs nothing per request.
func (q Quotas) enabled() bool {
	return q.SubmitRate > 0 || q.MaxInflight > 0 || q.InstrRate > 0 || q.MaxModuleBytes > 0
}

// bucket is a token bucket refilled continuously: level is the balance as
// of last.
type bucket struct {
	level float64
	last  time.Time
}

func (b *bucket) refill(now time.Time, rate, burst float64) {
	if b.last.IsZero() {
		b.level = burst
	} else {
		b.level = math.Min(burst, b.level+rate*now.Sub(b.last).Seconds())
	}
	b.last = now
}

// untilPositive estimates how long until the bucket holds at least `need`
// tokens at the given rate.
func (b *bucket) untilPositive(need, rate float64) time.Duration {
	if b.level >= need || rate <= 0 {
		return 0
	}
	return time.Duration((need - b.level) / rate * float64(time.Second))
}

type clientBudget struct {
	subs     bucket
	instrs   bucket
	inflight int
}

// limiter holds every client's budgets. Its lock is taken once per
// submission and once per completion — never on the analysis hot path.
type limiter struct {
	q       Quotas
	mu      sync.Mutex
	clients map[string]*clientBudget
}

func newLimiter(q Quotas) *limiter {
	q = q.withDefaults()
	if !q.enabled() {
		return nil
	}
	return &limiter{q: q, clients: map[string]*clientBudget{}}
}

func (l *limiter) budget(client string) *clientBudget {
	b := l.clients[client]
	if b == nil {
		b = &clientBudget{}
		l.clients[client] = b
	}
	return b
}

// admit charges one submission against the client's budgets. On success
// it increments the in-flight count (released by finish or release). On
// rejection it reports the reason label and a Retry-After estimate.
func (l *limiter) admit(client string) (retryAfter time.Duration, reason string, ok bool) {
	if l == nil {
		return 0, "", true
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.budget(client)
	if l.q.SubmitRate > 0 {
		b.subs.refill(now, l.q.SubmitRate, float64(l.q.SubmitBurst))
		if b.subs.level < 1 {
			return b.subs.untilPositive(1, l.q.SubmitRate), rejectRate, false
		}
	}
	if l.q.InstrRate > 0 {
		b.instrs.refill(now, l.q.InstrRate, l.q.instrBurst())
		if b.instrs.level <= 0 {
			// In debt from earlier jobs: wait out the overdraft.
			return b.instrs.untilPositive(1, l.q.InstrRate), rejectQuota, false
		}
	}
	if l.q.MaxInflight > 0 && b.inflight >= l.q.MaxInflight {
		// No refill schedule to estimate from; a poll interval is honest.
		return time.Second, rejectQuota, false
	}
	if l.q.SubmitRate > 0 {
		b.subs.level--
	}
	b.inflight++
	return 0, "", true
}

// admitModuleBytes checks the per-submission footprint quota (separately
// from admit: the payload size is known only after the body parses).
func (l *limiter) admitModuleBytes(n int) bool {
	return l == nil || l.q.MaxModuleBytes <= 0 || n <= l.q.MaxModuleBytes
}

// release undoes admit's in-flight charge for a submission that never
// became a job (spec rejected, queue full, idempotent replay). The spent
// rate token is deliberately not refunded: malformed or duplicate
// submissions still consume a client's request budget.
func (l *limiter) release(client string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if b := l.clients[client]; b != nil && b.inflight > 0 {
		b.inflight--
	}
}

// finish settles a completed job: the in-flight slot frees and the
// instructions it actually executed debit the client's budget.
func (l *limiter) finish(client string, instrs int64) {
	if l == nil {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.budget(client)
	if b.inflight > 0 {
		b.inflight--
	}
	if l.q.InstrRate > 0 {
		b.instrs.refill(now, l.q.InstrRate, l.q.instrBurst())
		b.instrs.level -= float64(instrs)
	}
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1 so clients never busy-loop on 0.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}
