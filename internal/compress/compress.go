// Package compress implements the compressed-secondary-storage (CSS)
// operation form of paper Section 7.2: pages are stored compressed on
// flash, trading extra CPU on every access for the lowest storage rent of
// the three operation forms (Figure 8). This is the Facebook/RocksDB
// space-amplification play the paper describes.
package compress

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"sync"

	"costperf/internal/metrics"
	"costperf/internal/sim"
	"costperf/internal/ssd"
)

// Compress deflates data at the given level (flate.DefaultCompression if
// level is 0).
func Compress(data []byte, level int) ([]byte, error) {
	if level == 0 {
		level = flate.DefaultCompression
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decompress inflates data, refusing to expand beyond maxSize bytes.
func Decompress(data []byte, maxSize int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out, err := io.ReadAll(io.LimitReader(r, int64(maxSize)+1))
	if err != nil {
		return nil, err
	}
	if len(out) > maxSize {
		return nil, fmt.Errorf("compress: payload exceeds %d bytes", maxSize)
	}
	return out, nil
}

// Stats counts page-store events.
type Stats struct {
	BytesUncompressed metrics.Counter
	BytesCompressed   metrics.Counter
}

// Ratio returns compressed/uncompressed bytes, or 1 when nothing was
// written.
func (s *Stats) Ratio() float64 {
	u := s.BytesUncompressed.Value()
	if u == 0 {
		return 1
	}
	return float64(s.BytesCompressed.Value()) / float64(u)
}

// ErrNoPage is returned when reading an unknown page.
var ErrNoPage = errors.New("compress: no such page")

// PageStore keeps pages compressed on a device. Every read is a CSS
// operation: one I/O plus decompression CPU.
type PageStore struct {
	dev     ssd.Dev
	session *sim.Session
	level   int

	mu    sync.Mutex
	tail  int64
	index map[uint64]extent
	stats Stats
}

type extent struct {
	off      int64
	clen     int32
	origSize int32
}

// NewPageStore creates a compressed page store on the device. level is
// the flate level (0 = default).
func NewPageStore(dev ssd.Dev, session *sim.Session, level int) (*PageStore, error) {
	if dev == nil {
		return nil, errors.New("compress: nil device")
	}
	return &PageStore{dev: dev, session: session, level: level, index: map[uint64]extent{}}, nil
}

// Stats returns the store's counters.
func (p *PageStore) Stats() *Stats { return &p.stats }

// WritePage compresses and stores a page (superseding any prior version).
func (p *PageStore) WritePage(id uint64, data []byte) error {
	ch := p.session.Begin()
	ch.Add(ch.Profile().CompressPerByte * sim.Cost(len(data)))
	comp, err := Compress(data, p.level)
	if err != nil {
		ch.Abandon()
		return err
	}
	p.mu.Lock()
	off := p.tail
	p.tail += int64(len(comp))
	p.mu.Unlock()
	if err := p.dev.WriteAt(off, comp, ch); err != nil {
		ch.Abandon()
		return err
	}
	p.mu.Lock()
	p.index[id] = extent{off: off, clen: int32(len(comp)), origSize: int32(len(data))}
	p.mu.Unlock()
	p.stats.BytesUncompressed.Add(int64(len(data)))
	p.stats.BytesCompressed.Add(int64(len(comp)))
	ch.Escalate(sim.OpCSS)
	ch.Settle()
	return nil
}

// ReadPage fetches and decompresses a page — a CSS operation.
func (p *PageStore) ReadPage(id uint64) ([]byte, error) {
	p.mu.Lock()
	ext, ok := p.index[id]
	p.mu.Unlock()
	if !ok {
		return nil, ErrNoPage
	}
	ch := p.session.Begin()
	raw, err := p.dev.ReadAt(ext.off, int(ext.clen), ch)
	if err != nil {
		ch.Abandon()
		return nil, err
	}
	out, err := Decompress(raw, int(ext.origSize))
	if err != nil {
		ch.Abandon()
		return nil, err
	}
	ch.Add(ch.Profile().DecompressPerByte * sim.Cost(len(out)))
	ch.Escalate(sim.OpCSS)
	ch.Settle()
	return out, nil
}

// FootprintBytes returns the compressed bytes currently indexed.
func (p *PageStore) FootprintBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, e := range p.index {
		n += int64(e.clen)
	}
	return n
}
