package chrysalis

import (
	"chrysalis/internal/audit"
	"chrysalis/internal/core"
	"chrysalis/internal/sim"
)

// --- Flight recorder: full energy-state waveforms ---

// FlightRecorder captures the simulator's full energy-state vector each
// step — capacitor voltage, stored energy, harvest/load/leakage power,
// cumulative compute/NVM-IO/checkpoint energy and the power-cycle index
// — into bounded min/max-preserving bins, plus an exact per-power-cycle
// energy ledger. Memory stays within the configured point budget no
// matter how long the simulated horizon: when bins overflow, adjacent
// pairs merge and the bin width doubles, preserving every bin's true
// min/max (peaks survive, unlike plain decimation).
//
// A recorder is safe to snapshot concurrently while a simulation runs —
// the pattern behind chrysalisd's live waveform endpoint:
//
//	rec := chrysalis.NewFlightRecorder(0)
//	run, report, _ := chrysalis.VerifyFlight(spec, res, nil, rec)
//	wf := rec.Waveform()          // JSON-marshalable, or wf.WriteCSV(w)
//	fmt.Println(report.OK())      // energy conservation verdict
type FlightRecorder = sim.Recorder

// NewFlightRecorder returns a recorder with the given per-channel point
// budget (<= 0 selects the default of 4096 bins).
func NewFlightRecorder(maxPoints int) *FlightRecorder { return sim.NewRecorder(maxPoints) }

// Waveform is a point-in-time snapshot of a flight recorder: the
// downsampled channels plus the per-cycle energy ledgers.
type Waveform = sim.Waveform

// WaveChannel is one waveform channel (e.g. "v_cap" in volts).
type WaveChannel = sim.WaveChannel

// WavePoint is one downsampled bin of one channel: min/max/mean/last of
// the raw samples that fell into it.
type WavePoint = sim.WavePoint

// CycleLedger is the exact energy bookkeeping of one power cycle; see
// the audit checks in AuditReport for the invariants it must satisfy.
type CycleLedger = sim.CycleLedger

// --- Energy-conservation audit ---

// AuditReport is the outcome of an energy-conservation audit: per-cycle
// capacitor balance, harvest identity, Eq. 2 leakage reconstruction,
// voltage bounds and event-ordering checks. OK() reports a clean run.
type AuditReport = audit.Report

// AuditFinding is one failed audit check, localized to a power cycle.
type AuditFinding = audit.Finding

// AuditOptions tunes audit tolerances; the zero value selects defaults.
type AuditOptions = audit.Options

// Audit folds a flight recorder's ledgers into conservation and
// invariant checks. A nil recorder yields an empty passing report.
func Audit(rec *FlightRecorder, opts AuditOptions) *AuditReport { return audit.Run(rec, opts) }

// VerifyFlight replays a designed solution through the co-simulator
// selected by spec.SimMode (the event-driven simulator by default) with
// an optional event callback and an optional flight recorder, then
// audits the recorded physics. The report is nil when rec is nil.
func VerifyFlight(spec Spec, res Result, onEvent func(SimEvent), rec *FlightRecorder) (SimResult, *AuditReport, error) {
	var tr sim.Tracer
	if onEvent != nil {
		tr = sim.Tracer(onEvent)
	}
	return core.VerifyFlight(spec, res, tr, rec)
}

// SimulateSeriesFlight is SimulateSeries with a flight recorder
// attached: the recorder spans every inference and idle gap, so the
// waveform and ledgers cover the whole deployment horizon (a day-long
// series still fits the recorder's point budget).
func SimulateSeriesFlight(spec Spec, dp DesignPoint, env Environment, n int, idle Seconds, rec *FlightRecorder) (SeriesResult, *AuditReport, error) {
	cfg, err := replay(spec, dp, env)
	if err != nil {
		return SeriesResult{}, nil, err
	}
	cfg.Record = rec
	sr, err := sim.RunSeries(cfg, n, idle)
	if err != nil {
		return SeriesResult{}, nil, err
	}
	var rep *AuditReport
	if rec != nil {
		rep = audit.Run(rec, audit.Options{})
	}
	return sr, rep, nil
}
