package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a peer Client.
type Options struct {
	// Self is this node's own base URL as it appears in Peers (e.g.
	// "http://10.0.0.1:8080"). Keys owned by Self run locally.
	Self string
	// Peers lists every cluster node's base URL, including Self. All
	// nodes must use the same list (order-insensitive) so they agree on
	// ring ownership.
	Peers []string
	// Replicas is the virtual-node count per node (<= 0 selects
	// DefaultReplicas).
	Replicas int
	// Timeout bounds each peer HTTP call (<= 0 selects 2s). Delegated
	// evaluations poll with repeated short calls, so one slow search
	// never trips it.
	Timeout time.Duration
	// PollInterval spaces delegation polls (<= 0 selects 100ms).
	PollInterval time.Duration
	// FailureBackoff is the base breaker hold-off after a peer error
	// (<= 0 selects 1s); it doubles per consecutive failure up to
	// BackoffMax (<= 0 selects 30s). While a peer's breaker is open its
	// keys run locally — degradation, never a user-visible failure.
	FailureBackoff time.Duration
	BackoffMax     time.Duration
	// Client is the HTTP client to use (nil builds one from Timeout).
	Client *http.Client
	// OnHop, when non-nil, observes the wall-clock duration of every
	// completed HTTP exchange with a peer (any status; transport
	// failures are not hops). Serving layers hang per-peer latency
	// histograms off it. Must be fast and safe for concurrent use.
	OnHop func(peer string, seconds float64)
	// OnBreaker, when non-nil, fires on circuit-breaker state
	// transitions: open=true when a peer's breaker trips closed→open,
	// open=false when a call succeeds against a previously-open breaker.
	// Repeated failures while already open do not re-fire.
	OnBreaker func(peer string, open bool)
	// now is injectable for breaker tests.
	now func() time.Time
}

// Stats is a point-in-time snapshot of the client's counters.
type Stats struct {
	// PeerErrors counts failed peer calls (timeouts, refused
	// connections, non-2xx responses).
	PeerErrors int64
	// Fallbacks counts evaluations that ran locally although a peer
	// owned the key (breaker open or delegation failed mid-flight).
	Fallbacks int64
}

// Client is the peer-facing half of a cluster node: ring lookups plus
// breaker-guarded HTTP calls to other nodes. Safe for concurrent use.
type Client struct {
	opts Options
	ring *Ring
	http *http.Client
	now  func() time.Time

	peerErrors atomic.Int64
	fallbacks  atomic.Int64

	mu       sync.Mutex
	breakers map[string]*breaker
}

// breaker tracks one peer's consecutive failures and the earliest next
// attempt.
type breaker struct {
	failures int
	openTill time.Time
}

// New validates the options and builds a client. It is an error for
// Self to be absent from Peers, or for the cluster to have fewer than
// two nodes — a single node needs no peer client.
func New(o Options) (*Client, error) {
	if o.Self == "" {
		return nil, errors.New("cluster: Self must be set")
	}
	found := false
	for _, p := range o.Peers {
		if p == o.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: Self %q not in Peers %v", o.Self, o.Peers)
	}
	ring := NewRing(o.Peers, o.Replicas)
	if len(ring.Nodes()) < 2 {
		return nil, fmt.Errorf("cluster: need >= 2 distinct peers, got %v", ring.Nodes())
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 100 * time.Millisecond
	}
	if o.FailureBackoff <= 0 {
		o.FailureBackoff = time.Second
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 30 * time.Second
	}
	hc := o.Client
	if hc == nil {
		hc = &http.Client{Timeout: o.Timeout}
	}
	now := o.now
	if now == nil {
		now = time.Now
	}
	return &Client{opts: o, ring: ring, http: hc, now: now, breakers: make(map[string]*breaker)}, nil
}

// Ring returns the client's ring (for tests and tooling).
func (c *Client) Ring() *Ring { return c.ring }

// Self returns this node's base URL.
func (c *Client) Self() string { return c.opts.Self }

// Stats snapshots the counters.
func (c *Client) Stats() Stats {
	return Stats{
		PeerErrors: c.peerErrors.Load(),
		Fallbacks:  c.fallbacks.Load(),
	}
}

// PeersUp reports how many remote peers currently have a closed
// breaker (reachable as far as we know).
func (c *Client) PeersUp() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	up := 0
	now := c.now()
	for _, n := range c.ring.Nodes() {
		if n == c.opts.Self {
			continue
		}
		if b, ok := c.breakers[n]; !ok || !now.Before(b.openTill) {
			up++
		}
	}
	return up
}

// RemoteOwner resolves the key's owner. It returns ("", false) when the
// key is owned by this node, and (owner, false) with a fallback counted
// when the owner's breaker is open — the caller should evaluate
// locally in both cases.
func (c *Client) RemoteOwner(key string) (owner string, remote bool) {
	owner = c.ring.Owner(key)
	if owner == "" || owner == c.opts.Self {
		return "", false
	}
	c.mu.Lock()
	b := c.breakers[owner]
	open := b != nil && c.now().Before(b.openTill)
	c.mu.Unlock()
	if open {
		c.fallbacks.Add(1)
		return owner, false
	}
	return owner, true
}

// CountFallback records a local evaluation of a remote-owned key after
// a failed delegation (the breaker bookkeeping happens in the failed
// call itself).
func (c *Client) CountFallback() { c.fallbacks.Add(1) }

// fail opens (or extends) a peer's breaker with exponential backoff.
func (c *Client) fail(peer string) {
	c.peerErrors.Add(1)
	c.mu.Lock()
	b := c.breakers[peer]
	if b == nil {
		b = &breaker{}
		c.breakers[peer] = b
	}
	wasOpen := c.now().Before(b.openTill)
	b.failures++
	backoff := c.opts.FailureBackoff << (b.failures - 1)
	if backoff > c.opts.BackoffMax || backoff <= 0 {
		backoff = c.opts.BackoffMax
	}
	b.openTill = c.now().Add(backoff)
	c.mu.Unlock()
	if !wasOpen && c.opts.OnBreaker != nil {
		c.opts.OnBreaker(peer, true)
	}
}

// ok closes a peer's breaker after a successful call.
func (c *Client) ok(peer string) {
	c.mu.Lock()
	b := c.breakers[peer]
	wasOpen := b != nil && c.now().Before(b.openTill)
	delete(c.breakers, peer)
	c.mu.Unlock()
	if wasOpen && c.opts.OnBreaker != nil {
		c.opts.OnBreaker(peer, false)
	}
}

// PeerState is one remote peer's availability as this node sees it.
type PeerState struct {
	// Peer is the peer's base URL.
	Peer string `json:"peer"`
	// Open reports an open circuit breaker (the peer's keys currently
	// run locally).
	Open bool `json:"open"`
	// Failures counts the consecutive failures behind the current
	// backoff (0 when the breaker is closed).
	Failures int `json:"failures"`
}

// PeerStates snapshots every remote peer's breaker, in ring-node order.
func (c *Client) PeerStates() []PeerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	var out []PeerState
	for _, n := range c.ring.Nodes() {
		if n == c.opts.Self {
			continue
		}
		ps := PeerState{Peer: n}
		if b, ok := c.breakers[n]; ok {
			ps.Open = now.Before(b.openTill)
			ps.Failures = b.failures
		}
		out = append(out, ps)
	}
	return out
}

// errPeer wraps any transport or HTTP-status failure talking to a peer.
type errPeer struct {
	peer string
	err  error
}

func (e *errPeer) Error() string { return fmt.Sprintf("cluster: peer %s: %v", e.peer, e.err) }
func (e *errPeer) Unwrap() error { return e.err }

// IsPeerError reports whether err came from a failed peer call (as
// opposed to a deliberate negative answer like a cache miss).
func IsPeerError(err error) bool {
	var pe *errPeer
	return errors.As(err, &pe)
}

// FetchCached asks owner for its cached result of key (GET
// /internal/cache/{key}). It returns (body, true, nil) on a hit,
// (nil, false, nil) on a clean miss, and a peer error otherwise.
// Hit/miss counters are the caller's job — a miss usually becomes a
// delegation, and only the caller knows.
func (c *Client) FetchCached(ctx context.Context, owner, key string) ([]byte, bool, error) {
	body, status, err := c.do(ctx, owner, http.MethodGet, "/internal/cache/"+key, nil)
	if err != nil {
		return nil, false, err
	}
	switch status {
	case http.StatusOK:
		c.ok(owner)
		return body, true, nil
	case http.StatusNotFound:
		c.ok(owner)
		return nil, false, nil
	default:
		err := &errPeer{peer: owner, err: fmt.Errorf("cache probe: status %d", status)}
		c.fail(owner)
		return nil, false, err
	}
}

// jobEnvelope is the minimal slice of the serving layer's JobStatus the
// delegation loop needs; the full body is handed back to the caller
// verbatim.
type jobEnvelope struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// terminalState mirrors the serving layer's terminal job states.
func terminalState(s string) bool { return s == "done" || s == "failed" || s == "cancelled" }

// Delegate submits the raw design request to owner (POST
// /internal/designs) and polls the job to a terminal state, returning
// the final status body. The owner's own single-flight index
// deduplicates concurrent delegations of the same key cluster-wide.
// ctx bounds the whole delegation (a cancelled local job stops
// polling; the owner keeps its job).
func (c *Client) Delegate(ctx context.Context, owner string, req []byte) ([]byte, error) {
	body, status, err := c.do(ctx, owner, http.MethodPost, "/internal/designs", req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		// Includes 429: an overloaded owner sheds delegated work back to
		// the submitting node's local compute.
		err := &errPeer{peer: owner, err: fmt.Errorf("delegate submit: status %d", status)}
		c.fail(owner)
		return nil, err
	}
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		c.fail(owner)
		return nil, &errPeer{peer: owner, err: fmt.Errorf("delegate submit: bad body: %w", err)}
	}
	c.ok(owner)
	for !terminalState(env.State) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.opts.PollInterval):
		}
		body, status, err = c.do(ctx, owner, http.MethodGet, "/v1/designs/"+env.ID, nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			// The owner restarted mid-poll and lost the job record (or
			// recovered it under a new ID): treat as a peer failure and
			// let the caller fall back to local evaluation.
			err := &errPeer{peer: owner, err: fmt.Errorf("delegate poll: status %d", status)}
			c.fail(owner)
			return nil, err
		}
		if err := json.Unmarshal(body, &env); err != nil {
			c.fail(owner)
			return nil, &errPeer{peer: owner, err: fmt.Errorf("delegate poll: bad body: %w", err)}
		}
	}
	c.ok(owner)
	return body, nil
}

// Get runs one GET against a peer and returns (body, status). Transport
// errors count against the peer's breaker exactly as delegation calls
// do; HTTP statuses are the caller's to interpret. Used for best-effort
// sidecar fetches (remote job timelines, metric snapshots) that ride
// the same breaker and hop accounting as the main delegation path.
func (c *Client) Get(ctx context.Context, peer, path string) ([]byte, int, error) {
	return c.do(ctx, peer, http.MethodGet, path, nil)
}

// traceparentKey carries a W3C traceparent header value through a
// context into every peer call made under it.
type traceparentKey struct{}

// WithTraceparent returns a context whose peer calls carry the given
// traceparent header, so a delegated request keeps one distributed
// trace identity across the hop. Empty values are ignored.
func WithTraceparent(ctx context.Context, traceparent string) context.Context {
	if traceparent == "" {
		return ctx
	}
	return context.WithValue(ctx, traceparentKey{}, traceparent)
}

// do runs one bounded HTTP call against a peer. Transport errors open
// the peer's breaker; HTTP statuses are returned for the caller to
// interpret (only the caller knows which are failures). Completed
// exchanges (any status) report their latency through OnHop.
func (c *Client) do(ctx context.Context, peer, method, path string, body []byte) ([]byte, int, error) {
	callCtx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(callCtx, method, peer+path, rd)
	if err != nil {
		return nil, 0, &errPeer{peer: peer, err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tp, ok := ctx.Value(traceparentKey{}).(string); ok {
		req.Header.Set("traceparent", tp)
	}
	start := c.now()
	resp, err := c.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller cancelled — not the peer's fault, leave its
			// breaker alone.
			return nil, 0, ctx.Err()
		}
		c.fail(peer)
		return nil, 0, &errPeer{peer: peer, err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		c.fail(peer)
		return nil, 0, &errPeer{peer: peer, err: err}
	}
	if c.opts.OnHop != nil {
		c.opts.OnHop(peer, c.now().Sub(start).Seconds())
	}
	return data, resp.StatusCode, nil
}
