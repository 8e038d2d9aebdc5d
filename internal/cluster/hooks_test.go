package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestTraceparentPropagatesAndHopObserved checks the peer observes
// both hops, and the traceparent header on exactly the one whose
// context carried it.
func TestTraceparentPropagatesAndHopObserved(t *testing.T) {
	var mu sync.Mutex
	var gotTP []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gotTP = append(gotTP, r.Header.Get("traceparent"))
		mu.Unlock()
		http.NotFound(w, r) // clean cache miss
	}))
	defer ts.Close()

	c := twoNode(t, ts.URL, Options{})

	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	ctx := WithTraceparent(context.Background(), tp)
	if _, hit, err := c.FetchCached(ctx, ts.URL, "k"); err != nil || hit {
		t.Fatalf("probe: hit=%v err=%v", hit, err)
	}
	// Without a traceparent in context the header must be absent.
	if _, _, err := c.FetchCached(context.Background(), ts.URL, "k"); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(gotTP) != 2 || gotTP[0] != tp || gotTP[1] != "" {
		t.Fatalf("peer saw traceparent headers %q, want [%q \"\"]", gotTP, tp)
	}
}

func TestBreakerTransitionsAndPeerStates(t *testing.T) {
	now := time.Unix(1000, 0)
	var transitions []bool
	var c *Client
	c = twoNode(t, "http://peer.invalid:1", Options{
		FailureBackoff: time.Second,
		BackoffMax:     30 * time.Second,
		now:            func() time.Time { return now },
		OnBreaker: func(peer string, open bool) {
			if peer != "http://peer.invalid:1" {
				t.Errorf("transition peer = %q", peer)
			}
			transitions = append(transitions, open)
		},
	})

	if states := c.PeerStates(); len(states) != 1 || states[0].Open || states[0].Failures != 0 {
		t.Fatalf("initial states = %+v", states)
	}

	c.fail("http://peer.invalid:1") // closed → open: fires
	c.fail("http://peer.invalid:1") // already open: extends, no fire
	if len(transitions) != 1 || !transitions[0] {
		t.Fatalf("after two failures transitions = %v, want [true]", transitions)
	}
	states := c.PeerStates()
	if len(states) != 1 || !states[0].Open || states[0].Failures != 2 {
		t.Fatalf("open states = %+v", states)
	}

	c.ok("http://peer.invalid:1") // open → closed: fires
	if len(transitions) != 2 || transitions[1] {
		t.Fatalf("after recovery transitions = %v, want [true false]", transitions)
	}
	if states := c.PeerStates(); states[0].Open || states[0].Failures != 0 {
		t.Fatalf("recovered states = %+v", states)
	}

	// A success on an already-closed breaker must not re-fire.
	c.ok("http://peer.invalid:1")
	if len(transitions) != 2 {
		t.Fatalf("redundant ok fired a transition: %v", transitions)
	}

	// An expired (half-open) breaker closing via success: no fire either,
	// the open state already lapsed.
	c.fail("http://peer.invalid:1")
	now = now.Add(time.Minute)
	c.ok("http://peer.invalid:1")
	if len(transitions) != 3 { // the fail above fired open=true
		t.Fatalf("transitions = %v, want 3 entries ending in true", transitions)
	}
}
