package tc

import (
	"testing"

	"costperf/internal/fault"
	"costperf/internal/llama/logstore"
	"costperf/internal/ssd"
)

// A logstore frame header is magic(1), kind(1), pid(8), payload
// length(4) and checksum(4).
const (
	crcOff      = 14
	headerBytes = 18
)

// TestReplayTornFlushSweep tears the second log flush at every byte
// boundary of its frame — header and body — and checks that replay always
// recovers exactly the committed prefix: the first record survives, the
// torn record is discarded (unless the tear kept the whole frame), and the
// truncation offset lands on the last complete record boundary.
func TestReplayTornFlushSweep(t *testing.T) {
	commit := func(c *TC, key, val string) {
		t.Helper()
		tx, _ := c.Begin()
		tx.Write([]byte(key), []byte(val))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil { // a tear is silent, like power loss
			t.Fatal(err)
		}
	}
	entry := func(key, val string) []redoEntry { return []redoEntry{{key: []byte(key), val: []byte(val)}} }
	frameA := int64(headerBytes + len(encodeCommit(commitRecord{commitTS: 1, entries: entry("a", "1")})))
	frameB := headerBytes + len(encodeCommit(commitRecord{commitTS: 2, entries: entry("bb", "22")}))

	for keep := 0; keep <= frameB; keep++ {
		dev := ssd.New(ssd.SamsungSSD)
		inj := fault.NewInjector(int64(keep))
		dev.SetFaultInjector(inj)
		c, err := New(Config{DC: newMemDC(), LogDevice: dev})
		if err != nil {
			t.Fatal(err)
		}
		commit(c, "a", "1")    // device write 1: intact
		inj.TearWrite(2, keep) // device write 2: torn after keep bytes
		commit(c, "bb", "22")
		if got := c.DurableLSN(); got != frameA+int64(frameB) {
			t.Fatalf("keep=%d: durable LSN %d, want %d", keep, got, frameA+int64(frameB))
		}

		dc := newMemDC()
		res, err := Recover(dev, dc)
		if err != nil {
			t.Fatalf("keep=%d: replay failed: %v", keep, err)
		}
		sum := res.Replay

		wantRecords := 1
		wantTrunc := frameA
		if keep == frameB {
			wantRecords = 2
			wantTrunc = frameA + int64(frameB)
		}
		if v, _, _ := dc.Get([]byte("a")); string(v) != "1" {
			t.Fatalf("keep=%d: first record lost", keep)
		}
		if v, ok, _ := dc.Get([]byte("bb")); ok != (wantRecords == 2) || (ok && string(v) != "22") {
			t.Fatalf("keep=%d: second record = %q,%v, want present=%v", keep, v, ok, wantRecords == 2)
		}
		if res.MaxTS != uint64(wantRecords) {
			t.Fatalf("keep=%d: max ts %d, want %d", keep, res.MaxTS, wantRecords)
		}
		if sum.Records != wantRecords || sum.TruncatedAt != wantTrunc {
			t.Fatalf("keep=%d: summary %+v, want %d records truncated at %d",
				keep, sum, wantRecords, wantTrunc)
		}

		// The stop reason must match where the tear landed in the frame:
		// header tears read as zero fill (torn-tail), checksum and body
		// tears leave a length whose frame fails its checksum (bad-crc).
		var wantReason logstore.ReplayReason
		switch {
		case keep == frameB:
			wantReason = logstore.ReplayCleanEnd
		case keep < crcOff: // magic, kind, pid or length field torn: reads as zero fill
			wantReason = logstore.ReplayTornTail
		default: // CRC field or body torn: full length, checksum fails
			wantReason = logstore.ReplayBadCRC
		}
		if sum.Reason != wantReason {
			t.Fatalf("keep=%d: reason %s, want %s", keep, sum.Reason, wantReason)
		}
	}
}
