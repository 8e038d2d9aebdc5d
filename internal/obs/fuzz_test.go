package obs

import "testing"

// FuzzParseTraceparent hardens the traceparent parser, which reads an
// untrusted request header: arbitrary input must never panic, and any
// accepted context must be valid and survive a render/parse round trip.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-00")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("  00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-1 ")
	f.Add("")
	f.Add("----")
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted %q as an invalid context %+v", s, tc)
		}
		back, ok := ParseTraceparent(tc.Traceparent())
		if !ok || back != tc {
			t.Fatalf("round trip of %q: %+v -> %q -> %+v (%v)", s, tc, tc.Traceparent(), back, ok)
		}
	})
}
