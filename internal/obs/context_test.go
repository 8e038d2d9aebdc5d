package obs

import (
	"strings"
	"testing"
)

func TestNewTraceContext(t *testing.T) {
	a, b := NewTraceContext(), NewTraceContext()
	for _, tc := range []TraceContext{a, b} {
		if !tc.Valid() {
			t.Fatalf("fresh context invalid: %+v", tc)
		}
		if !tc.Sampled {
			t.Fatal("fresh context should be sampled")
		}
	}
	if a.TraceID == b.TraceID || a.SpanID == b.SpanID {
		t.Fatalf("two fresh contexts collided: %+v vs %+v", a, b)
	}
}

func TestTraceContextChild(t *testing.T) {
	root := NewTraceContext()
	child := root.Child()
	if child.TraceID != root.TraceID {
		t.Fatalf("child changed trace ID: %q -> %q", root.TraceID, child.TraceID)
	}
	if child.SpanID == root.SpanID {
		t.Fatal("child must get a fresh span ID")
	}
	if !child.Valid() || !child.Sampled {
		t.Fatalf("child not valid+sampled: %+v", child)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	orig := NewTraceContext()
	hdr := orig.Traceparent()
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("unexpected traceparent shape: %q", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("failed to parse own traceparent %q", hdr)
	}
	if got != orig {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, orig)
	}

	unsampled := orig
	unsampled.Sampled = false
	got, ok = ParseTraceparent(unsampled.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled flag lost: ok=%v got=%+v", ok, got)
	}
}

func TestParseTraceparentEdgeCases(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		in string
		ok bool
	}{
		{valid, true},
		{" " + valid + " ", true}, // surrounding whitespace tolerated
		{"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01", true},       // uppercase normalized
		{"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true}, // future version, extra field
		{"", false},
		{"garbage", false},
		{"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false},   // version ff reserved
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", false}, // v00 forbids extras
		{"00-00000000000000000000000000000000-00f067aa0ba902b7-01", false},   // all-zero trace ID
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false},   // all-zero span ID
		{"00-4bf92f3577b34da6a3ce929d0e0e47-00f067aa0ba902b7-01", false},     // short trace ID
		{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7zz-01", false}, // bad span hex
	}
	for _, c := range cases {
		got, ok := ParseTraceparent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", c.in, ok, c.ok)
		}
		if ok && !got.Valid() {
			t.Errorf("ParseTraceparent(%q) returned invalid context %+v", c.in, got)
		}
	}

	// Unsampled flag.
	if got, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"); !ok || got.Sampled {
		t.Errorf("flags 00 should parse unsampled, got ok=%v %+v", ok, got)
	}
}

func TestInvalidContextRenders(t *testing.T) {
	var zero TraceContext
	if zero.Valid() {
		t.Fatal("zero context must be invalid")
	}
	if got := zero.Traceparent(); got != "" {
		t.Fatalf("invalid context rendered %q", got)
	}
}
