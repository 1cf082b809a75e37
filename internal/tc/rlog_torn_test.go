package tc

import (
	"testing"

	"costperf/internal/fault"
	"costperf/internal/ssd"
)

// TestReplayTornFlushSweep tears the second log flush at every byte
// boundary of its frame — header and body — and checks that replay always
// recovers exactly the committed prefix: the first record survives, the
// torn record is discarded (unless the tear kept the whole frame), and the
// truncation offset lands on the last complete record boundary.
func TestReplayTornFlushSweep(t *testing.T) {
	recA := commitRecord{commitTS: 1, entries: []redoEntry{{key: []byte("a"), val: []byte("1")}}}
	recB := commitRecord{commitTS: 2, entries: []redoEntry{{key: []byte("bb"), val: []byte("22")}}}
	frameA := encodeCommit(recA)
	frameB := encodeCommit(recB)

	for keep := 0; keep <= len(frameB); keep++ {
		dev := ssd.New(ssd.SamsungSSD)
		inj := fault.NewInjector(int64(keep))
		dev.SetFaultInjector(inj)
		l := newRlog(dev, 1<<20, fault.DefaultRetry(), nil, nil)

		if err := l.append(recA); err != nil {
			t.Fatal(err)
		}
		if err := l.flush(); err != nil { // device write 1: intact
			t.Fatal(err)
		}
		inj.TearWrite(2, keep) // device write 2: torn after keep bytes
		if err := l.append(recB); err != nil {
			t.Fatal(err)
		}
		if err := l.flush(); err != nil { // tear is silent, like power loss
			t.Fatal(err)
		}

		var got []commitRecord
		sum, err := replayRange(dev, 0, 0, fault.DefaultRetry(), nil, func(r commitRecord, _ int64) error {
			got = append(got, r)
			return nil
		})
		if err != nil {
			t.Fatalf("keep=%d: replay failed: %v", keep, err)
		}

		wantRecords := 1
		wantTrunc := int64(len(frameA))
		if keep == len(frameB) {
			wantRecords = 2
			wantTrunc = int64(len(frameA) + len(frameB))
		}
		if len(got) != wantRecords {
			t.Fatalf("keep=%d: replayed %d records, want %d", keep, len(got), wantRecords)
		}
		if got[0].commitTS != 1 {
			t.Fatalf("keep=%d: first record ts %d, want 1", keep, got[0].commitTS)
		}
		if wantRecords == 2 && got[1].commitTS != 2 {
			t.Fatalf("keep=%d: second record ts %d, want 2", keep, got[1].commitTS)
		}
		if sum.Records != wantRecords || sum.TruncatedAt != wantTrunc {
			t.Fatalf("keep=%d: summary %+v, want %d records truncated at %d",
				keep, sum, wantRecords, wantTrunc)
		}

		// The stop reason must match where the tear landed in the frame:
		// header tears read as zero fill (torn-tail), body tears leave a
		// complete header whose checksum unmasks the damage (bad-crc).
		var wantReason ReplayReason
		switch {
		case keep == len(frameB):
			wantReason = ReplayCleanEnd
		case keep < 5: // magic or length field torn: reads as zero fill
			wantReason = ReplayTornTail
		default: // CRC field or body torn: full header, checksum fails
			wantReason = ReplayBadCRC
		}
		if sum.Reason != wantReason {
			t.Fatalf("keep=%d: reason %s, want %s", keep, sum.Reason, wantReason)
		}
	}
}
