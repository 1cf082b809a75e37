package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"costperf/internal/fault"
)

// The manifest makes the LSM tree recoverable: every flush and compaction
// commits the resulting table set by writing a sequence-numbered, CRC-framed
// manifest into one of two ping-pong slots at the head of the device. A
// crash between table writes and the manifest commit simply leaves the
// previous manifest (and previous table set) authoritative; old tables are
// trimmed only after the new manifest is durable.
const (
	manifestMagic     = 0xE7
	manifestSlots     = 2
	manifestSlotBytes = 64 << 10
	// tablesBase is the first device offset used for table data; the
	// manifest slots live below it.
	tablesBase = int64(manifestSlots * manifestSlotBytes)
	// manifest frame: magic(1) | len(4) | crc(4) | body
	manifestHeaderSize = 9
)

// ErrNoManifest is returned by Open when no valid manifest exists on the
// device (nothing was ever committed, or both slots are corrupt).
var ErrNoManifest = errors.New("lsm: no valid manifest on device")

// tableMeta is the durable description of one sstable; the in-memory index
// and bloom filter are rebuilt from the data region at Open.
type tableMeta struct {
	id      uint64
	level   int
	dataOff int64
	dataLen int64
	entries int
}

// encodeManifest serializes the commit point: seq, allocation state, and
// the full table set (L0 in newest-first order, deeper levels by min key).
func encodeManifest(seq uint64, nextID uint64, tail int64, tables []tableMeta) []byte {
	var body []byte
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		body = append(body, tmp[:n]...)
	}
	put(seq)
	put(nextID)
	put(uint64(tail))
	put(uint64(len(tables)))
	for _, m := range tables {
		put(m.id)
		put(uint64(m.level))
		put(uint64(m.dataOff))
		put(uint64(m.dataLen))
		put(uint64(m.entries))
	}
	out := make([]byte, manifestHeaderSize+len(body))
	out[0] = manifestMagic
	binary.BigEndian.PutUint32(out[1:], uint32(len(body)))
	binary.BigEndian.PutUint32(out[5:], crc32.ChecksumIEEE(body))
	copy(out[manifestHeaderSize:], body)
	return out
}

// decodeManifest parses a manifest body. Only what encodeManifest can
// produce is accepted: a table count the bytes left cannot hold, a level
// outside [0, maxLevels), a varint not in its shortest form and trailing
// bytes all fail with ErrCorrupt.
func decodeManifest(body []byte) (seq, nextID uint64, tail int64, tables []tableMeta, err error) {
	pos := 0
	get := func() uint64 {
		if err != nil {
			return 0
		}
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 || (n > 1 && body[pos+n-1] == 0) {
			err = fmt.Errorf("%w: truncated manifest", ErrCorrupt)
			return 0
		}
		pos += n
		return v
	}
	seq = get()
	nextID = get()
	tail = int64(get())
	n := get()
	// A table takes at least one byte for each of its five fields.
	if err == nil && n > uint64(len(body)-pos)/5 {
		err = fmt.Errorf("%w: manifest claims %d tables in %d bytes", ErrCorrupt, n, len(body)-pos)
	}
	if err != nil {
		return 0, 0, 0, nil, err
	}
	tables = make([]tableMeta, 0, n)
	for i := uint64(0); i < n; i++ {
		id := get()
		level := get()
		m := tableMeta{
			id:      id,
			level:   int(level),
			dataOff: int64(get()),
			dataLen: int64(get()),
			entries: int(get()),
		}
		if err == nil && level >= maxLevels {
			err = fmt.Errorf("%w: table %d on level %d beyond max %d", ErrCorrupt, id, level, maxLevels-1)
		}
		if err != nil {
			return 0, 0, 0, nil, err
		}
		tables = append(tables, m)
	}
	if pos != len(body) {
		return 0, 0, 0, nil, fmt.Errorf("%w: %d bytes after the manifest's tables", ErrCorrupt, len(body)-pos)
	}
	return seq, nextID, tail, tables, nil
}

// tableMetas snapshots the live table set in manifest order. Caller holds
// t.mu.
func (t *Tree) tableMetasLocked() []tableMeta {
	var out []tableMeta
	for _, lvl := range t.levels {
		for _, tb := range lvl {
			out = append(out, tableMeta{
				id: tb.id, level: tb.level,
				dataOff: tb.dataOff, dataLen: tb.dataLen, entries: tb.entries(),
			})
		}
	}
	return out
}

// writeManifestLocked commits the current table set: the next sequence
// number is framed into the slot the previous manifest does not occupy, so
// a torn manifest write leaves the old commit point intact. Caller holds
// t.mu.
func (t *Tree) writeManifestLocked() error {
	seq := t.manifestSeq + 1
	framed := encodeManifest(seq, t.nextID, t.tail, t.tableMetasLocked())
	if len(framed) > manifestSlotBytes {
		return fmt.Errorf("lsm: manifest (%d bytes) exceeds slot size %d", len(framed), manifestSlotBytes)
	}
	slot := int64(seq%manifestSlots) * manifestSlotBytes
	err := fault.DefaultRetry().Do(&t.stats.Retry, func() error {
		return t.cfg.Device.WriteAt(slot, framed, nil)
	})
	if err != nil {
		if fault.Classify(err) == fault.ClassPersistent {
			t.stats.Health.Degrade(fmt.Sprintf("manifest write: %v", err))
		}
		return err
	}
	t.manifestSeq = seq
	return nil
}

// readManifestSlot parses one slot; returns an error if the slot holds no
// valid frame.
func readManifestSlot(raw []byte) (seq, nextID uint64, tail int64, tables []tableMeta, err error) {
	if len(raw) < manifestHeaderSize || raw[0] != manifestMagic {
		return 0, 0, 0, nil, fmt.Errorf("%w: no manifest frame", ErrCorrupt)
	}
	blen := binary.BigEndian.Uint32(raw[1:])
	crc := binary.BigEndian.Uint32(raw[5:])
	if int(blen) > len(raw)-manifestHeaderSize {
		return 0, 0, 0, nil, fmt.Errorf("%w: torn manifest frame", ErrCorrupt)
	}
	body := raw[manifestHeaderSize : manifestHeaderSize+int(blen)]
	if crc32.ChecksumIEEE(body) != crc {
		return 0, 0, 0, nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	return decodeManifest(body)
}

// Open rebuilds a tree from the newest valid manifest on the device: table
// indexes and bloom filters are reconstructed by re-parsing each table's
// CRC-framed data region. Returns ErrNoManifest if no commit point exists.
func Open(cfg Config) (*Tree, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	retry := fault.DefaultRetry()
	var best struct {
		ok     bool
		seq    uint64
		nextID uint64
		tail   int64
		tables []tableMeta
	}
	hw := cfg.Device.HighWater()
	for slot := 0; slot < manifestSlots; slot++ {
		off := int64(slot) * manifestSlotBytes
		length := int64(manifestSlotBytes)
		if off >= hw {
			continue
		}
		if off+length > hw {
			length = hw - off
		}
		var raw []byte
		err := retry.Do(nil, func() error {
			var rerr error
			raw, rerr = cfg.Device.ReadAt(off, int(length), nil)
			return rerr
		})
		if err != nil {
			return nil, err
		}
		seq, nextID, tail, tables, err := readManifestSlot(raw)
		if err != nil {
			continue // torn or empty slot: the other slot decides
		}
		if !best.ok || seq > best.seq {
			best.ok, best.seq, best.nextID, best.tail, best.tables = true, seq, nextID, tail, tables
		}
	}
	if !best.ok {
		return nil, ErrNoManifest
	}
	t := &Tree{
		cfg:         cfg,
		mem:         newMemtable(),
		levels:      make([][]*sstable, maxLevels),
		tail:        best.tail,
		nextID:      best.nextID,
		manifestSeq: best.seq,
	}
	t.attachDeviceHealth()
	for _, m := range best.tables {
		tbl, err := t.openTable(m)
		if err != nil {
			return nil, fmt.Errorf("lsm: recovering table %d: %w", m.id, err)
		}
		// Manifest order is authoritative: L0 newest-first, deeper levels
		// sorted by min key.
		t.levels[m.level] = append(t.levels[m.level], tbl)
	}
	return t, nil
}

// openTable rebuilds one sstable's in-memory index and bloom filter by
// sequentially re-parsing its data region.
func (t *Tree) openTable(m tableMeta) (*sstable, error) {
	// The manifest sizes the index before the data is verified: bound it.
	if m.entries <= 0 || m.dataLen > math.MaxUint32 || int64(m.entries) > m.dataLen/minRecordSize {
		return nil, fmt.Errorf("%w: table %d claims %d records in %d bytes", ErrCorrupt, m.id, m.entries, m.dataLen)
	}
	var raw []byte
	err := fault.DefaultRetry().Do(&t.stats.Retry, func() error {
		var rerr error
		raw, rerr = t.cfg.Device.ReadAt(m.dataOff, int(m.dataLen), nil)
		return rerr
	})
	if err != nil {
		return nil, err
	}
	// The keys take at most what the records' framing leaves of the data;
	// the arena is cut to its exact size once they are known.
	tbl := newSSTable(m.id, m.level, m.entries, len(raw)-m.entries*minRecordSize, m.dataOff)
	for off := 0; off < len(raw) && tbl.entries() < m.entries; {
		e, consumed, err := parseRecord(raw[off:])
		if err != nil {
			return nil, err
		}
		off += consumed
		tbl.addRecord(e.key, off)
	}
	if tbl.entries() != m.entries || int(tbl.recStart(m.entries)) != len(raw) {
		return nil, fmt.Errorf("%w: table %d does not hold the manifest's %d records in %d bytes",
			ErrCorrupt, m.id, m.entries, m.dataLen)
	}
	tbl.keys = append(make([]byte, 0, len(tbl.keys)), tbl.keys...)
	tbl.seal()
	return tbl, nil
}

// ManifestSeq returns the sequence number of the last committed manifest
// (0 before the first commit).
func (t *Tree) ManifestSeq() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.manifestSeq
}
