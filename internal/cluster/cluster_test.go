package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// twoNode builds a client whose Self is a synthetic URL and whose one
// remote peer is the given test server.
func twoNode(t *testing.T, peer string, opts Options) *Client {
	t.Helper()
	opts.Self = "http://self.invalid:1"
	opts.Peers = []string{opts.Self, peer}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Peers: []string{"http://a:1"}}); err == nil {
		t.Error("missing Self accepted")
	}
	if _, err := New(Options{Self: "http://a:1", Peers: []string{"http://b:1"}}); err == nil {
		t.Error("Self outside Peers accepted")
	}
	if _, err := New(Options{Self: "http://a:1", Peers: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Error("single-node cluster accepted")
	}
}

func TestFetchCachedHitMissAndError(t *testing.T) {
	var mode atomic.Int32 // 0 hit, 1 miss, 2 error
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case 0:
			w.Write([]byte(`{"result":{}}`))
		case 1:
			http.NotFound(w, r)
		default:
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	defer ts.Close()
	c := twoNode(t, ts.URL, Options{})

	body, hit, err := c.FetchCached(context.Background(), ts.URL, "k")
	if err != nil || !hit || len(body) == 0 {
		t.Fatalf("hit: body=%q hit=%v err=%v", body, hit, err)
	}
	mode.Store(1)
	if _, hit, err := c.FetchCached(context.Background(), ts.URL, "k"); err != nil || hit {
		t.Fatalf("miss: hit=%v err=%v", hit, err)
	}
	mode.Store(2)
	if _, _, err := c.FetchCached(context.Background(), ts.URL, "k"); !isPeerError(err) {
		t.Fatalf("500 not reported as peer error: %v", err)
	}
	if s := c.Stats(); s.PeerErrors != 1 {
		t.Errorf("peer errors = %d, want 1", s.PeerErrors)
	}
}

// TestBreakerOpensAndRecovers: after a failure the owner's keys fall
// back to local until the backoff expires, then remote resolution
// resumes.
func TestBreakerOpensAndRecovers(t *testing.T) {
	now := time.Now()
	clock := func() time.Time { return now }
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer ts.Close()
	c := twoNode(t, ts.URL, Options{FailureBackoff: time.Second, now: clock})

	// Find a key the remote peer owns.
	var key string
	for i := 0; ; i++ {
		k := keys(i + 1)[i]
		if c.ring.Owner(k) == ts.URL {
			key = k
			break
		}
	}
	if owner, remote := c.RemoteOwner(key); !remote || owner != ts.URL {
		t.Fatalf("RemoteOwner = %q,%v before any failure", owner, remote)
	}
	if _, _, err := c.FetchCached(context.Background(), ts.URL, key); !isPeerError(err) {
		t.Fatalf("bad-gateway probe: %v", err)
	}
	if _, remote := c.RemoteOwner(key); remote {
		t.Error("breaker did not open after failure")
	}
	if got := c.Stats().Fallbacks; got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	if up := c.PeersUp(); up != 0 {
		t.Errorf("PeersUp = %d with breaker open, want 0", up)
	}
	now = now.Add(1100 * time.Millisecond) // past the 1s base backoff
	if _, remote := c.RemoteOwner(key); !remote {
		t.Error("breaker did not half-open after backoff")
	}
	// A second consecutive failure doubles the hold-off.
	if _, _, err := c.FetchCached(context.Background(), ts.URL, key); !isPeerError(err) {
		t.Fatalf("second probe: %v", err)
	}
	now = now.Add(1100 * time.Millisecond)
	if _, remote := c.RemoteOwner(key); remote {
		t.Error("exponential backoff not applied on consecutive failure")
	}
	now = now.Add(time.Second)
	if _, remote := c.RemoteOwner(key); !remote {
		t.Error("breaker stuck open after doubled backoff")
	}
}

// TestDelegatePollsToTerminal: the delegation loop submits, polls a
// non-terminal job until it finishes, and returns the final body.
func TestDelegatePollsToTerminal(t *testing.T) {
	var polls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]string{"id": "j-000001", "state": "queued"})
		default:
			st := "running"
			if polls.Add(1) >= 3 {
				st = "done"
			}
			json.NewEncoder(w).Encode(map[string]any{"id": "j-000001", "state": st, "result": map[string]any{"Evals": 42}})
		}
	}))
	defer ts.Close()
	c := twoNode(t, ts.URL, Options{PollInterval: 5 * time.Millisecond})

	body, err := c.Delegate(context.Background(), ts.URL, []byte(`{"workload":"har"}`))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.State != "done" || len(env.Result) == 0 {
		t.Fatalf("final body %s", body)
	}
	if polls.Load() < 3 {
		t.Errorf("polled %d times, want >= 3", polls.Load())
	}
}

// TestDelegateOwnerVanishesMidPoll: a 404 while polling (owner
// restarted, job record gone) is a peer error so the caller falls back
// to local evaluation instead of hanging or failing the client request.
func TestDelegateOwnerVanishesMidPoll(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			json.NewEncoder(w).Encode(map[string]string{"id": "j-000009", "state": "running"})
			return
		}
		http.NotFound(w, r)
	}))
	defer ts.Close()
	c := twoNode(t, ts.URL, Options{PollInterval: time.Millisecond})
	if _, err := c.Delegate(context.Background(), ts.URL, []byte(`{}`)); !isPeerError(err) {
		t.Fatalf("vanished owner: %v", err)
	}
}

// TestDelegateCancelledContext: cancelling the local job stops the
// poll loop promptly with the context's error.
func TestDelegateCancelledContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"id": "j-1", "state": "running"})
	}))
	defer ts.Close()
	c := twoNode(t, ts.URL, Options{PollInterval: 10 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	if _, err := c.Delegate(ctx, ts.URL, []byte(`{}`)); err != context.Canceled {
		t.Fatalf("cancelled delegation: %v", err)
	}
}

// TestDelegateShedByOwner: a 429 from an overloaded owner is a peer
// error (the submitting node runs the search itself) — backpressure
// spreads work instead of queueing it all on one node.
func TestDelegateShedByOwner(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := twoNode(t, ts.URL, Options{})
	if _, err := c.Delegate(context.Background(), ts.URL, []byte(`{}`)); !isPeerError(err) {
		t.Fatalf("shed delegation: %v", err)
	}
}

// isPeerError reports whether err came from a failed peer call (as
// opposed to a deliberate negative answer like a cache miss).
func isPeerError(err error) bool {
	var pe *errPeer
	return errors.As(err, &pe)
}
