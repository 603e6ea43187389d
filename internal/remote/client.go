package remote

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discopop/internal/pipeline"
)

// Spec carries the per-job analysis options that travel with an encoded
// module.
type Spec struct {
	// Threads overrides the worker's default for local-speedup ranking.
	Threads int
	// BottomUp selects bottom-up CU construction on the worker.
	BottomUp bool
	// TraceID, when non-empty, is sent as the X-DP-Trace header so the
	// worker records its job spans under the coordinator's trace id and
	// the returned spans graft into one fleet-wide trace.
	TraceID string
}

// ErrNoPeers is returned when every configured peer is marked down (or
// the client has none): the caller should run the analysis locally.
var ErrNoPeers = errors.New("remote: no healthy peers")

// RemoteError is a terminal failure reported by a peer rather than the
// transport: the peer rejected the request (4xx) or the analysis itself
// failed. Retrying on another peer would fail the same way, so the client
// surfaces it instead of failing over. Rejected distinguishes the two:
// a rejected submission never ran (the peer's decode limits may simply
// be stricter than local analysis, so a local run can still succeed),
// while a failed analysis did run and would fail anywhere.
type RemoteError struct {
	Peer string
	Msg  string
	// Rejected is true for submission rejections (4xx), false for
	// analyses that ran on the peer and failed.
	Rejected bool
}

func (e *RemoteError) Error() string { return fmt.Sprintf("remote: peer %s: %s", e.Peer, e.Msg) }

// jobEvictedError reports a 404/410 answer on a job poll: the worker's
// bounded jobStore evicted the record before its result was read. The
// answer is authoritative — the peer is up and serving — but the result
// is unrecoverable, so the analysis is resubmitted to the next candidate
// without pushing the evicting peer toward its failure cooldown.
type jobEvictedError struct {
	peer string
	id   string
}

func (e *jobEvictedError) Error() string {
	return fmt.Sprintf("remote: peer %s no longer has job %s (record evicted)", e.peer, e.id)
}

// retryAfterError reports a 429 on submit: the peer is healthy but this
// client is over its rate limit or quota. It is neither a transport fault
// (no health penalty) nor authoritative for the job (the analysis has not
// run) — the caller backs off for the advertised delay and retries.
type retryAfterError struct {
	peer  string
	delay time.Duration
}

func (e *retryAfterError) Error() string {
	return fmt.Sprintf("remote: peer %s rate-limited the submission (retry after %s)", e.peer, e.delay)
}

// ClientOptions tunes failover behavior. The zero value is serviceable.
type ClientOptions struct {
	// HTTPClient overrides the transport (tests inject httptest clients).
	HTTPClient *http.Client
	// MaxAttempts bounds submissions per analysis across peers
	// (0 = number of peers).
	MaxAttempts int
	// PollWait is the long-poll duration sent as ?wait= (0 = 10s).
	PollWait time.Duration
	// JobTimeout bounds one peer attempt end to end: submit, polls, and
	// report decode (0 = 2m).
	JobTimeout time.Duration
	// FailThreshold is how many consecutive failures mark a peer down
	// (0 = 3).
	FailThreshold int
	// Cooldown is how long a down peer is skipped before being probed
	// again (0 = 15s).
	Cooldown time.Duration
	// Token is the bearer token presented on every request; empty sends no
	// Authorization header (workers running open).
	Token string
}

func (o ClientOptions) withDefaults(peers int) ClientOptions {
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = peers
	}
	if o.PollWait <= 0 {
		o.PollWait = 10 * time.Second
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 2 * time.Minute
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 15 * time.Second
	}
	return o
}

// PeerStats is a snapshot of one peer's proxy counters, rendered by the
// coordinator's /metrics.
type PeerStats struct {
	URL string
	// Requests counts analysis submissions attempted against the peer.
	Requests int64
	// Failures counts transport-level failures (refused, timeout, bad
	// status, garbage response).
	Failures int64
	// Jobs counts analyses the peer completed successfully.
	Jobs int64
	// Healthy is false while the peer sits in its failure cooldown.
	Healthy bool
}

type peer struct {
	url string

	requests atomic.Int64
	failures atomic.Int64
	jobs     atomic.Int64

	mu          sync.Mutex
	consecFails int
	downUntil   time.Time
}

func (p *peer) healthy(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return now.After(p.downUntil)
}

func (p *peer) noteFailure(threshold int, cooldown time.Duration) {
	p.failures.Add(1)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.consecFails++
	if p.consecFails >= threshold {
		p.downUntil = time.Now().Add(cooldown)
		p.consecFails = 0
	}
}

func (p *peer) noteSuccess() {
	p.mu.Lock()
	p.consecFails = 0
	p.downUntil = time.Time{}
	p.mu.Unlock()
}

// Client ships encoded modules to a fleet of dp-serve peers. It is safe
// for concurrent use: engine workers fan jobs through one shared Client,
// which spreads them round-robin over the healthy peers.
type Client struct {
	peers []*peer
	opt   ClientOptions
	next  atomic.Uint64
}

// NewClient builds a client over the given peer base URLs (e.g.
// "http://10.0.0.7:8080"). Trailing slashes are trimmed; empty entries
// are dropped.
func NewClient(urls []string, opt ClientOptions) *Client {
	c := &Client{}
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		c.peers = append(c.peers, &peer{url: u})
	}
	c.opt = opt.withDefaults(len(c.peers))
	return c
}

// Available reports whether at least one peer is outside its failure
// cooldown — whether AnalyzeBytes could do anything but return
// ErrNoPeers. Callers use it to skip submission work (module encoding)
// while the whole fleet is down; it is advisory, racing peers back to
// health is harmless.
func (c *Client) Available() bool {
	now := time.Now()
	for _, p := range c.peers {
		if p.healthy(now) {
			return true
		}
	}
	return false
}

// Stats snapshots every peer's proxy counters.
func (c *Client) Stats() []PeerStats {
	now := time.Now()
	out := make([]PeerStats, len(c.peers))
	for i, p := range c.peers {
		out[i] = PeerStats{
			URL:      p.url,
			Requests: p.requests.Load(),
			Failures: p.failures.Load(),
			Jobs:     p.jobs.Load(),
			Healthy:  p.healthy(now),
		}
	}
	return out
}

// AnalyzeBytes submits an already-encoded module to the fleet: it walks
// the healthy peers round-robin, retrying transport failures on the next
// peer up to MaxAttempts, and returns ErrNoPeers when no peer could take
// the job (the caller falls back to local analysis). A *RemoteError means
// a peer answered authoritatively — rejected module or failed analysis —
// and is not retried. A 404/410 on a job poll (the worker's bounded job
// store evicted the record before the result was read) resubmits to the
// next peer like a transport failure, but does not count toward the
// evicting peer's failure cooldown: the peer is up, the result is simply
// gone.
func (c *Client) AnalyzeBytes(ctx context.Context, enc []byte, spec Spec) (*pipeline.WireReport, error) {
	if len(c.peers) == 0 {
		return nil, ErrNoPeers
	}
	now := time.Now()
	start := int(c.next.Add(1) - 1)
	var candidates []*peer
	for i := range c.peers {
		p := c.peers[(start+i)%len(c.peers)]
		if p.healthy(now) {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return nil, ErrNoPeers
	}
	if len(candidates) > c.opt.MaxAttempts {
		candidates = candidates[:c.opt.MaxAttempts]
	}
	// One idempotency key per logical job, reused across every peer attempt:
	// a worker that already accepted an earlier attempt (the coordinator
	// timed out, the connection dropped mid-response) answers the retry from
	// its original record instead of running the analysis twice.
	idemKey := newIdemKey()
	var lastErr error
	rateRetries := 0
	for i := 0; i < len(candidates); i++ {
		p := candidates[i]
		rep, err := c.analyzeOn(ctx, p, enc, spec, idemKey)
		if err == nil {
			p.noteSuccess()
			p.jobs.Add(1)
			return rep, nil
		}
		var rerr *RemoteError
		if errors.As(err, &rerr) {
			// An authoritative answer, not a peer fault.
			p.noteSuccess()
			return nil, err
		}
		var evict *jobEvictedError
		if errors.As(err, &evict) {
			// Also authoritative — the worker evicted the job record under
			// load, not a transport fault — but the result is gone, so the
			// analysis still has to run somewhere else.
			p.noteSuccess()
			lastErr = err
			continue
		}
		var ra *retryAfterError
		if errors.As(err, &ra) {
			// Over this client's rate limit or quota on that peer: the peer
			// is healthy (no cooldown pressure), the job just has to wait.
			// Honor Retry-After and try the same peer again, a bounded number
			// of times per job so a saturated quota eventually surfaces.
			p.noteSuccess()
			lastErr = err
			if rateRetries < maxRateRetries {
				rateRetries++
				if err := sleepCtx(ctx, ra.delay); err != nil {
					return nil, err
				}
				i-- // revisit the same peer after the advertised delay
			}
			continue
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		p.noteFailure(c.opt.FailThreshold, c.opt.Cooldown)
		lastErr = err
	}
	return nil, fmt.Errorf("remote: all peers failed: %w", lastErr)
}

// maxRateRetries bounds how many Retry-After backoffs one job absorbs
// before its 429 is reported to the caller (which falls back locally).
const maxRateRetries = 2

// newIdemKey returns a fresh 128-bit idempotency key, or "" if the
// system's entropy source fails (the submission then simply isn't
// deduplicable — strictly the pre-idempotency behavior).
func newIdemKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return "dp-" + hex.EncodeToString(b[:])
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter reads a 429's Retry-After header (delta-seconds form).
// Missing or malformed values back off half a second; advertised delays
// are capped so a hostile peer cannot park the coordinator for minutes.
func parseRetryAfter(h string) time.Duration {
	const (
		fallback = 500 * time.Millisecond
		maxDelay = 10 * time.Second
	)
	n, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || n < 0 {
		return fallback
	}
	d := time.Duration(n) * time.Second
	if d > maxDelay {
		return maxDelay
	}
	return d
}

// analyzeOn runs one submit-and-poll attempt against a single peer.
func (c *Client) analyzeOn(ctx context.Context, p *peer, enc []byte, spec Spec, idemKey string) (*pipeline.WireReport, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opt.JobTimeout)
	defer cancel()
	p.requests.Add(1)

	body, err := json.Marshal(map[string]any{
		"module":   base64.StdEncoding.EncodeToString(enc),
		"threads":  spec.Threads,
		"bottomup": spec.BottomUp,
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	if spec.TraceID != "" {
		req.Header.Set("X-DP-Trace", spec.TraceID)
	}
	c.authorize(req)
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	switch {
	case resp.StatusCode == http.StatusAccepted:
	case resp.StatusCode == http.StatusTooManyRequests:
		return nil, &retryAfterError{peer: p.url,
			delay: parseRetryAfter(resp.Header.Get("Retry-After"))}
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return nil, &RemoteError{Peer: p.url, Rejected: true,
			Msg: fmt.Sprintf("rejected submission: %s", errBody(payload))}
	default:
		return nil, fmt.Errorf("peer %s: submit status %d", p.url, resp.StatusCode)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(payload, &acc); err != nil || acc.ID == "" {
		return nil, fmt.Errorf("peer %s: malformed accept response", p.url)
	}

	// Long-poll until the job reaches a terminal state or the attempt's
	// context expires.
	for {
		view, err := c.pollJob(ctx, p, acc.ID)
		if err != nil {
			return nil, err
		}
		switch view.State {
		case "done":
			if view.Result == nil {
				return nil, fmt.Errorf("peer %s: done job %s has no result", p.url, acc.ID)
			}
			view.Result.Peer = p.url
			return view.Result, nil
		case "failed":
			return nil, &RemoteError{Peer: p.url, Msg: fmt.Sprintf("analysis failed: %s", view.Error)}
		case "queued":
			// Poll again (the server bounds each ?wait=, so this loops on
			// slow jobs until our own deadline).
		default:
			return nil, fmt.Errorf("peer %s: unknown job state %q", p.url, view.State)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
}

// authorize attaches the configured bearer token, when there is one.
func (c *Client) authorize(req *http.Request) {
	if c.opt.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.opt.Token)
	}
}

type wireJobView struct {
	State  string               `json:"state"`
	Error  string               `json:"error"`
	Result *pipeline.WireReport `json:"result"`
}

func (c *Client) pollJob(ctx context.Context, p *peer, id string) (*wireJobView, error) {
	url := fmt.Sprintf("%s/v1/jobs/%s?wait=%s", p.url, id, c.opt.PollWait)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	c.authorize(req)
	resp, err := c.opt.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusGone {
		return nil, &jobEvictedError{peer: p.url, id: id}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: job poll status %d", p.url, resp.StatusCode)
	}
	var view wireJobView
	if err := json.Unmarshal(payload, &view); err != nil {
		return nil, fmt.Errorf("peer %s: malformed job response: %w", p.url, err)
	}
	return &view, nil
}

func errBody(payload []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(payload, &e) == nil && e.Error != "" {
		return e.Error
	}
	s := strings.TrimSpace(string(payload))
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
