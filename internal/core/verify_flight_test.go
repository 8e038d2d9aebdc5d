package core

import (
	"testing"

	"chrysalis/internal/sim"
)

// TestVerifyFlightAuditsAllPresets replays every bundled preset's
// designed solution through the step simulator with a flight recorder
// attached and requires the energy-conservation audit to pass — the
// evaluator must obey its own physics on every scenario we ship.
func TestVerifyFlightAuditsAllPresets(t *testing.T) {
	for _, p := range Presets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			spec := p.Build("har")
			spec.Search = fastSearch(17)
			res, err := Run(spec)
			if err != nil {
				t.Fatalf("%s: design failed: %v", p.Name, err)
			}
			rec := sim.NewRecorder(1024)
			run, rep, err := VerifyFlight(spec, res, nil, rec)
			if err != nil {
				t.Fatalf("%s: verify failed: %v", p.Name, err)
			}
			if rep == nil {
				t.Fatalf("%s: expected an audit report", p.Name)
			}
			if !rep.OK() {
				t.Errorf("%s: audit failed: %s\nfindings: %+v", p.Name, rep, rep.Findings)
			}
			if rec.Waveform().RawSamples == 0 {
				t.Errorf("%s: recorder saw no samples", p.Name)
			}
			if run.Completed && rep.Cycles == 0 {
				t.Errorf("%s: completed run produced no cycle ledgers", p.Name)
			}
		})
	}

	// Without a recorder there is no audit, and the legacy wrapper
	// still works.
	spec := Presets()[0].Build("har")
	spec.Search = fastSearch(17)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, rep, err := VerifyFlight(spec, res, nil, nil); err != nil || rep != nil {
		t.Fatalf("recorder-less flight: rep=%v err=%v", rep, err)
	}
	if _, err := Verify(spec, res); err != nil {
		t.Fatalf("legacy Verify broke: %v", err)
	}
}
