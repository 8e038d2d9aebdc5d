package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"
)

// testCluster is an in-process chrysalisd cluster: N Servers on real
// loopback listeners (the ring needs each node's URL before any node
// is built, so the listeners come first).
type testCluster struct {
	urls []string
	srvs []*Server
	http []*http.Server
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return newTestClusterWith(t, n, func(int) Options { return Options{Workers: 2} })
}

// newTestClusterWith builds an n-node cluster whose node i runs with
// opts(i); Self, Peers and Logger are filled in here.
func newTestClusterWith(t *testing.T, n int, opts func(i int) Options) *testCluster {
	t.Helper()
	tc := &testCluster{}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		tc.urls = append(tc.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		o := opts(i)
		o.Self, o.Peers, o.Logger = tc.urls[i], tc.urls, testLogger(t)
		s, err := New(o)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		hs := &http.Server{Handler: s.Handler()}
		go func() { _ = hs.Serve(ln) }()
		tc.srvs = append(tc.srvs, s)
		tc.http = append(tc.http, hs)
	}
	t.Cleanup(func() {
		for i := range tc.srvs {
			tc.stop(t, i)
		}
	})
	return tc
}

// stop shuts one node down; stopping an already-stopped node is a no-op.
func (tc *testCluster) stop(t *testing.T, i int) {
	t.Helper()
	if tc.http[i] == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = tc.http[i].Shutdown(ctx)
	_ = tc.srvs[i].Shutdown(ctx)
	tc.http[i] = nil
}

// evaluationsAcross sums chrysalisd_evaluations_total over the live
// nodes — the cluster-wide count of searches actually executed.
func (tc *testCluster) evaluationsAcross(t *testing.T) float64 {
	t.Helper()
	var sum float64
	for i, hs := range tc.http {
		if hs == nil {
			continue
		}
		sum += metricValue(t, tc.urls[i], "chrysalisd_evaluations_total")
	}
	return sum
}

// TestClusterSingleFlight is the exactly-once contract test: one design
// submitted to all three nodes concurrently evaluates exactly once
// cluster-wide. The ring gives the key one owner, non-owners delegate
// to it, and the owner's single-flight index coalesces the concurrent
// delegations.
func TestClusterSingleFlight(t *testing.T) {
	tc := newTestCluster(t, 3)

	req := smallJob()
	var wg sync.WaitGroup
	ids := make([]string, 3)
	for i := range tc.srvs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, tc.urls[i]+"/v1/designs", req)
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("node %d submit: %d %s", i, resp.StatusCode, body)
				return
			}
			var st JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Errorf("node %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()

	for i, id := range ids {
		if id == "" {
			t.Fatal("a submission failed; cannot continue")
		}
		final := pollJob(t, tc.urls[i], id)
		if final.State != JobDone || final.Result == nil {
			t.Fatalf("node %d job %s: state %s (%s)", i, id, final.State, final.Error)
		}
	}
	if got := tc.evaluationsAcross(t); got != 1 {
		t.Errorf("cluster-wide evaluations = %g, want exactly 1", got)
	}

	// Resubmitting anywhere now resolves from cache (local or the
	// owner's) without another evaluation.
	resp, body := postJSON(t, tc.urls[0]+"/v1/designs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		final := pollJob(t, tc.urls[0], st.ID)
		if final.State != JobDone {
			t.Fatalf("resubmit job: state %s (%s)", final.State, final.Error)
		}
	}
	if got := tc.evaluationsAcross(t); got != 1 {
		t.Errorf("evaluations after resubmit = %g, want still 1", got)
	}
}

// TestClusterPeerDownDegradesLocally kills one node and checks the
// survivors keep serving every request: keys owned by the dead peer
// fall back to local evaluation (counted as cluster fallbacks), and no
// client submission ever fails.
func TestClusterPeerDownDegradesLocally(t *testing.T) {
	tc := newTestCluster(t, 3)
	tc.stop(t, 2)

	// Submit distinct designs until one hashes to the dead node (the
	// ring hashes node URLs with ephemeral ports, so which seeds land
	// there varies per run — each seed hits it with p≈1/3, so the 48-seed
	// cap fails only with probability (2/3)^48 ≈ 3e-9). Every submission
	// must complete on node 0 regardless of ownership.
	var errsA, fallsA float64
	for seed := int64(10); seed < 58; seed++ {
		req := smallJob()
		req.Seed = seed
		resp, body := postJSON(t, tc.urls[0]+"/v1/designs", req)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d %s", seed, resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		final := pollJob(t, tc.urls[0], st.ID)
		if final.State != JobDone || final.Result == nil {
			t.Errorf("seed %d: state %s (%s)", seed, final.State, final.Error)
		}
		errsA = metricValue(t, tc.urls[0], "chrysalisd_cluster_peer_errors_total")
		fallsA = metricValue(t, tc.urls[0], "chrysalisd_cluster_fallbacks_total")
		if errsA >= 1 && fallsA >= 1 {
			break
		}
	}
	// The dead peer was noticed: at least one peer call failed and at
	// least one owned key was evaluated locally instead.
	if errsA < 1 || fallsA < 1 {
		t.Errorf("peer_errors=%g fallbacks=%g, want both >= 1 with a dead peer", errsA, fallsA)
	}
	if up := metricValue(t, tc.urls[0], "chrysalisd_cluster_peers_up"); up > 1 {
		t.Errorf("peers_up = %g, want <= 1 after losing a peer", up)
	}
}
