package serve

import (
	"io"
	"log/slog"
	"reflect"
	"testing"

	"chrysalis/internal/wal"
)

// FuzzOpenJournal hardens journal replay against arbitrary record
// payloads. The payloads are written as correctly framed WAL records
// (and, when withSnap is set, as a snapshot of a head frame and one job
// frame) through wal's own Append and WriteSnapshot, so the replay code
// sees exactly what a daemon could have journaled. openJournal must not
// panic or fail; every recovered job has an ID and a known state;
// nextID is at least every recovered job's sequence, so a restarted
// daemon never reuses an ID; and a second open of the same directory
// recovers the same table.
func FuzzOpenJournal(f *testing.F) {
	submit := []byte(`{"op":"submit","id":"j-000001","req":{"workload":"har","budget":60,"seed":7}}`)
	f.Add(false, []byte(nil), []byte(nil), submit, []byte(`{"op":"done","id":"j-000001","result":{}}`))
	f.Add(false, []byte(nil), []byte(nil), []byte(`{"op":"submit","id":`), submit)
	f.Add(false, []byte(nil), []byte(nil), []byte(`{"op":"frobnicate","id":"j-000003"}`), []byte(`{"op":"failed","id":"j-000003","error":"x"}`))
	f.Add(false, []byte(nil), []byte(nil), []byte(`{"op":"submit","id":""}`), []byte(`{"op":"cancelled","id":"j-9"}`))
	f.Add(true, []byte(`{"next_id":5}`), []byte(`{"op":"done","id":"j-000004","req":{"workload":"kws"}}`),
		[]byte(`{"op":"submit","id":"j-000006"}`), []byte(`{"op":"done","id":"j-000004"}`))
	f.Add(true, []byte(`{"next_id":2,"jobs":[{"op":"submit","id":"j-000002"}]}`), []byte(`null`), []byte(nil), []byte(`[]`))
	f.Fuzz(func(t *testing.T, withSnap bool, snapHead, snapJob, rec1, rec2 []byte) {
		dir := t.TempDir()
		lg, _, err := wal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if withSnap {
			err := lg.WriteSnapshot(func(emit func([]byte) error) error {
				if err := emit(snapHead); err != nil {
					return err
				}
				return emit(snapJob)
			})
			if err != nil {
				t.Skip(err) // a frame over wal.MaxRecord
			}
		}
		for _, rec := range [][]byte{rec1, rec2} {
			if err := lg.Append(rec); err != nil {
				t.Skip(err)
			}
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}

		logger := slog.New(slog.NewTextHandler(io.Discard, nil))
		open := func() ([]*recoveredJob, int64) {
			jn, jobs, nextID, err := openJournal(dir, logger)
			if err != nil {
				t.Fatalf("openJournal: %v", err)
			}
			jn.close()
			return jobs, nextID
		}
		jobs, nextID := open()
		for _, j := range jobs {
			if j.id == "" {
				t.Fatalf("recovered a job with no ID: %+v", j)
			}
			switch j.state {
			case JobQueued, JobDone, JobFailed, JobCancelled:
			default:
				t.Fatalf("job %s recovered in unknown state %q", j.id, j.state)
			}
			if seq := jobSeq(j.id); nextID < seq {
				t.Fatalf("nextID %d is below recovered job %s", nextID, j.id)
			}
		}
		again, nextAgain := open()
		if nextAgain != nextID || !reflect.DeepEqual(again, jobs) {
			t.Fatalf("second open recovered %d jobs (next %d), first %d (next %d)", len(again), nextAgain, len(jobs), nextID)
		}
	})
}
