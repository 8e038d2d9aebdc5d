package serve

// Admission control: per-client token-bucket quotas plus queue-depth
// shedding. Both reject with 429 and a Retry-After hint — the client
// is told to slow down, not that the service broke (503 is reserved
// for shutdown). Shed decisions are counted per reason on /metrics.

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"chrysalis/internal/obs"
)

// admissionClients bounds the tracked client set; full buckets are
// pruned first once it is exceeded (an idle client's bucket refills to
// burst and carries no information).
const admissionClients = 1024

// anonClient keys requests that carry no X-API-Key header.
const anonClient = "anonymous"

// admission is a per-client token-bucket rate limiter. Each client
// (X-API-Key value) holds up to burst tokens, refilled at rps per
// second; a submission spends one token.
type admission struct {
	rps   float64
	burst float64

	mu      sync.Mutex
	clients map[string]*bucket
	now     func() time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// newAdmission builds a limiter; burst <= 0 selects max(1, 2·rps).
func newAdmission(rps float64, burst int) *admission {
	b := float64(burst)
	if burst <= 0 {
		b = math.Max(1, 2*rps)
	}
	return &admission{rps: rps, burst: b, clients: make(map[string]*bucket), now: time.Now}
}

// allow spends one token for the client. When the bucket is empty it
// reports false plus the wait until one token refills.
func (a *admission) allow(client string) (ok bool, retryAfter time.Duration) {
	if client == "" {
		client = anonClient
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	bk := a.clients[client]
	if bk == nil {
		a.pruneLocked()
		bk = &bucket{tokens: a.burst, last: now}
		a.clients[client] = bk
	}
	bk.tokens = math.Min(a.burst, bk.tokens+now.Sub(bk.last).Seconds()*a.rps)
	bk.last = now
	if bk.tokens < 1 {
		return false, time.Duration(math.Ceil((1-bk.tokens)/a.rps)) * time.Second
	}
	bk.tokens--
	return true, 0
}

// pruneLocked drops refilled (idle) buckets once the client table is
// full; if every client is active, the oldest-seen go first.
func (a *admission) pruneLocked() {
	if len(a.clients) < admissionClients {
		return
	}
	for c, bk := range a.clients {
		if bk.tokens >= a.burst {
			delete(a.clients, c)
		}
	}
	for c := range a.clients {
		if len(a.clients) < admissionClients {
			break
		}
		delete(a.clients, c)
	}
}

// remaining samples every client's current token count for /metrics
// (sorted for stable exposition output).
func (a *admission) remaining() []obs.LabeledValue {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	names := make([]string, 0, len(a.clients))
	for c := range a.clients {
		names = append(names, c)
	}
	sort.Strings(names)
	out := make([]obs.LabeledValue, 0, len(names))
	for _, c := range names {
		bk := a.clients[c]
		tokens := math.Min(a.burst, bk.tokens+now.Sub(bk.last).Seconds()*a.rps)
		out = append(out, obs.LabeledValue{Labels: []string{c}, Value: int64(tokens)})
	}
	return out
}

// retryAfterValue renders a Retry-After header in whole seconds.
func retryAfterValue(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// retryAfterQueue estimates how long until queue pressure clears:
// the queue depth times the recent p50 job latency, spread over the
// worker pool, clamped to [1s, 60s].
func (m *manager) retryAfterQueue() time.Duration {
	p50 := m.met.p50()
	if p50 <= 0 {
		p50 = 1
	}
	est := float64(len(m.queue)) * p50 / float64(m.opts.Workers)
	return time.Duration(math.Min(60, math.Max(1, math.Ceil(est)))) * time.Second
}
