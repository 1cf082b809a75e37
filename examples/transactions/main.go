// transactions: the full Deuteronomy stack — transaction component (MVCC
// version store as updated-record cache + read cache) over the Bw-tree data component —
// including a crash and recovery, and the Section 6.3 record-cache effect:
// most reads never reach the data component, let alone the device.
package main

import (
	"errors"
	"fmt"
	"log"

	"costperf"
	"costperf/internal/tc"
)

func main() {
	d, err := costperf.NewDeuteronomy(costperf.DeuteronomyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	logDev := costperf.NewDevice(costperf.SamsungSSD)
	txc, err := costperf.NewTransactional(d.Tree, logDev, d.Session)
	if err != nil {
		log.Fatal(err)
	}

	// A transfer workload over account records.
	const accounts = 1000
	setup, _ := txc.Begin()
	for i := uint64(0); i < accounts; i++ {
		if err := setup.Write(costperf.Key(i), []byte(fmt.Sprintf("balance=%d", 100))); err != nil {
			log.Fatal(err)
		}
	}
	if err := setup.Commit(); err != nil {
		log.Fatal(err)
	}

	commits, conflicts := 0, 0
	for i := 0; i < 5000; i++ {
		tx, err := txc.Begin()
		if err != nil {
			log.Fatal(err)
		}
		from := costperf.Key(uint64(i) % accounts)
		to := costperf.Key(uint64(i*7) % accounts)
		if _, _, err := tx.Read(from); err != nil {
			log.Fatal(err)
		}
		if _, _, err := tx.Read(to); err != nil {
			log.Fatal(err)
		}
		tx.Write(from, []byte(fmt.Sprintf("balance=%d", 100-i%10)))
		tx.Write(to, []byte(fmt.Sprintf("balance=%d", 100+i%10)))
		switch err := tx.Commit(); {
		case err == nil:
			commits++
		case errors.Is(err, tc.ErrConflict):
			conflicts++
		default:
			log.Fatal(err)
		}
	}
	st := txc.Stats()
	total := st.VersionStoreHits.Value() + st.ReadCacheHits.Value() + st.DCReads.Value()
	fmt.Printf("ran 5000 transfer transactions: %d commits, %d conflicts\n", commits, conflicts)
	fmt.Printf("read path (Figure 6 cascade) over %d reads:\n", total)
	fmt.Printf("  MVCC version store (updated-record cache):      %d\n", st.VersionStoreHits.Value())
	fmt.Printf("  log-structured read cache:                      %d\n", st.ReadCacheHits.Value())
	fmt.Printf("  data component (Bw-tree):                       %d\n", st.DCReads.Value())
	fmt.Printf("every cache hit avoids the DC lookup and any I/O (Section 6.3)\n\n")

	// Transactional range scans merge own writes, snapshot-visible
	// versions, and the data component (the Figure 6 cascade generalized).
	scanTx, _ := txc.Begin()
	scanTx.Write(costperf.Key(2), []byte("balance=999 (uncommitted)"))
	fmt.Println("snapshot scan of the first accounts (with one own uncommitted write):")
	if err := scanTx.Scan(costperf.Key(0), 4, func(k, v []byte) bool {
		fmt.Printf("  account %d -> %s\n", k[7], v)
		return true
	}); err != nil {
		log.Fatal(err)
	}
	scanTx.Abort()
	fmt.Println()

	// Crash: discard the in-memory state, replay the recovery log into a
	// fresh stack. Redo uses the same blind updates as normal operation.
	if err := txc.Close(); err != nil {
		log.Fatal(err)
	}
	fresh, err := costperf.NewDeuteronomy(costperf.DeuteronomyOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := tc.Recover(logDev, fresh.Tree)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crash recovery: replayed %d committed writes (through ts %d)\n", res.Applied, res.MaxTS)
	v, ok, err := fresh.Tree.Get(costperf.Key(0))
	if err != nil || !ok {
		log.Fatalf("account 0 lost in recovery: ok=%v err=%v", ok, err)
	}
	fmt.Printf("account 0 after recovery: %s\n", v)
}
