package experiments

import (
	"fmt"
	"strings"

	"costperf/internal/btree"
	"costperf/internal/lsm"
	"costperf/internal/masstree"
	"costperf/internal/sim"
	"costperf/internal/ssd"
	"costperf/internal/workload"
)

// StoreResult is one engine's measurement under one workload mix.
type StoreResult struct {
	Store        string
	Mix          string
	CostPerOp    float64 // mean execution cost units per operation
	MissFraction float64
	DeviceReads  int64
	DeviceWrites int64
	FootprintMB  float64
}

// CrossStoreResult is the cross-engine comparison table.
type CrossStoreResult struct {
	Keys    int
	Ops     int
	Results []StoreResult
}

// kvDriver is the uniform adapter the comparison drives.
type kvDriver struct {
	name      string
	get       func(k []byte) error
	put       func(k, v []byte) error
	blind     func(k, v []byte) error
	del       func(k []byte) error
	scan      func(start []byte, limit int) error
	footprint func() int64
}

func bwDriver(sess *sim.Session, dev ssd.Dev) (*kvDriver, error) {
	tr, err := newStack(sess, dev)
	if err != nil {
		return nil, err
	}
	return &kvDriver{
		name:  "bwtree",
		get:   func(k []byte) error { _, _, err := tr.Get(k); return err },
		put:   tr.Insert,
		blind: tr.BlindWrite,
		del:   tr.Delete,
		scan: func(s []byte, l int) error {
			return tr.Scan(s, l, func(_, _ []byte) bool { return true })
		},
		footprint: tr.FootprintBytes,
	}, nil
}

func mtDriver(sess *sim.Session) *kvDriver {
	tr := masstree.New(sess)
	return &kvDriver{
		name:  "masstree",
		get:   func(k []byte) error { tr.Get(k); return nil },
		put:   func(k, v []byte) error { tr.Put(k, v); return nil },
		blind: func(k, v []byte) error { tr.Put(k, v); return nil },
		del:   func(k []byte) error { tr.Delete(k); return nil },
		scan: func(s []byte, l int) error {
			tr.Scan(s, l, func(_, _ []byte) bool { return true })
			return nil
		},
		footprint: tr.FootprintBytes,
	}
}

func lsmDriver(sess *sim.Session, dev ssd.Dev) (*kvDriver, error) {
	tr, err := lsm.New(lsm.Config{Device: dev, Session: sess})
	if err != nil {
		return nil, err
	}
	return &kvDriver{
		name:  "lsm",
		get:   func(k []byte) error { _, _, err := tr.Get(k); return err },
		put:   tr.Put,
		blind: tr.Put,
		del:   tr.Delete,
		scan: func(s []byte, l int) error {
			return tr.Scan(s, l, func(_, _ []byte) bool { return true })
		},
		footprint: func() int64 { return int64(tr.MemtableBytes()) },
	}, nil
}

func btDriver(sess *sim.Session, dev ssd.Dev, pool int) (*kvDriver, error) {
	tr, err := btree.New(btree.Config{Device: dev, PoolPages: pool, Session: sess})
	if err != nil {
		return nil, err
	}
	return &kvDriver{
		name:  "btree",
		get:   func(k []byte) error { _, _, err := tr.Get(k); return err },
		put:   tr.Insert,
		blind: tr.Insert,
		del:   tr.Delete,
		scan: func(s []byte, l int) error {
			return tr.Scan(s, l, func(_, _ []byte) bool { return true })
		},
		footprint: func() int64 { return int64(pool) * btree.PageSize },
	}, nil
}

// MeasureCrossStore runs each engine through the named mixes with a
// zipfian chooser and reports per-op costs — the "who wins" table behind
// the paper's introduction (main-memory stores fastest, caching stores
// close behind with far smaller footprints, the classic B-tree far
// behind once the pool misses).
func MeasureCrossStore(keys, ops int) (*CrossStoreResult, error) {
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"readonly", workload.ReadOnly},
		{"readmostly", workload.ReadMostly},
		{"updateheavy", workload.UpdateHeavy},
		{"blindheavy", workload.BlindWriteHeavy},
	}
	res := &CrossStoreResult{Keys: keys, Ops: ops}
	for _, m := range mixes {
		for _, engine := range []string{"masstree", "bwtree", "lsm", "btree"} {
			sess := sim.NewSession(sim.DefaultCosts())
			dev := ssd.New(ssd.SamsungSSD)
			var d *kvDriver
			var err error
			switch engine {
			case "masstree":
				d = mtDriver(sess)
			case "bwtree":
				d, err = bwDriver(sess, dev)
			case "lsm":
				d, err = lsmDriver(sess, dev)
			case "btree":
				// A pool sized at roughly half the data forces real cache
				// behaviour.
				d, err = btDriver(sess, dev, keys/64)
			}
			if err != nil {
				return nil, err
			}
			for i := 0; i < keys; i++ {
				if err := d.put(workload.Key(uint64(i)), workload.ValueFor(uint64(i), 100)); err != nil {
					return nil, err
				}
			}
			sess.Tracker().Reset()
			dev.Stats().Reset()
			gen, err := workload.NewGenerator(workload.GeneratorConfig{
				Keys: uint64(keys), ValueSize: 100, Mix: m.mix,
				Chooser: workload.NewZipfian(7, 0.99), Seed: 7,
			})
			if err != nil {
				return nil, err
			}
			for i := 0; i < ops; i++ {
				op := gen.Next()
				switch op.Kind {
				case workload.OpRead:
					err = d.get(op.Key)
				case workload.OpUpdate, workload.OpInsert:
					err = d.put(op.Key, op.Value)
				case workload.OpBlindWrite:
					err = d.blind(op.Key, op.Value)
				case workload.OpScan:
					err = d.scan(op.Key, op.ScanLen)
				case workload.OpDelete:
					err = d.del(op.Key)
				}
				if err != nil {
					return nil, err
				}
			}
			tk := sess.Tracker()
			total := tk.TotalOps()
			cost := 0.0
			if total > 0 {
				cost = float64(tk.TotalCost()) / float64(total)
			}
			res.Results = append(res.Results, StoreResult{
				Store:        engine,
				Mix:          m.name,
				CostPerOp:    cost,
				MissFraction: tk.MissFraction(),
				DeviceReads:  dev.Stats().Reads.Value(),
				DeviceWrites: dev.Stats().Writes.Value(),
				FootprintMB:  float64(d.footprint()) / (1 << 20),
			})
		}
	}
	return res, nil
}

// String renders the comparison table.
func (r *CrossStoreResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-store comparison (%d keys, %d ops, zipfian 0.99)\n", r.Keys, r.Ops)
	fmt.Fprintf(&b, "%12s %10s %12s %8s %10s %10s %12s\n",
		"mix", "store", "cost/op", "missF", "dev reads", "dev writes", "footprintMB")
	for _, s := range r.Results {
		fmt.Fprintf(&b, "%12s %10s %12.1f %8.4f %10d %10d %12.2f\n",
			s.Mix, s.Store, s.CostPerOp, s.MissFraction, s.DeviceReads, s.DeviceWrites, s.FootprintMB)
	}
	return b.String()
}
