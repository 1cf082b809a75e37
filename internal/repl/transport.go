package repl

import (
	"hash/crc32"
	"sync"

	"costperf/internal/fault"
)

// Frame is one shipped batch of recovery-log bytes. From/To are LSNs
// (device offsets) bounding the payload; Durable is the primary's durable
// LSN at ship time, which the standby uses to measure its lag. A Frame
// with a negative From carries no payload: it is the shipper's resync
// probe, asking the standby to report its applied LSN.
type Frame struct {
	Epoch   uint64
	From    int64
	To      int64
	Durable int64
	CRC     uint32 // IEEE CRC over Payload
	Payload []byte
}

// probeFrom marks a resync probe.
const probeFrom = int64(-1)

// frameCRC computes the payload checksum a Frame must carry.
func frameCRC(payload []byte) uint32 { return crc32.ChecksumIEEE(payload) }

// Ack is the standby's response to one frame. Applied is the standby's
// applied LSN after handling it — on a nak this doubles as the resync
// cursor the shipper should back up to.
type Ack struct {
	Epoch   uint64
	Applied int64
	OK      bool
	Reason  string
}

// linkQueue bounds each direction of the in-process link; overflow drops
// the message, like a congested network path, and the shipper's resend
// machinery recovers.
const linkQueue = 128

// Link is the fault-injectable in-process transport between a shipper and
// a standby: two bounded channels with a fault.NetInjector deciding, per
// message, whether to drop, duplicate, or hold (reorder) it. A held
// message is delivered right after the next message in the same direction
// — the minimal reordering a windowed protocol must tolerate. Safe for
// concurrent use.
type Link struct {
	mu     sync.Mutex
	net    *fault.NetInjector
	frames lane[Frame]
	acks   lane[Ack]
	closed bool
}

// lane is one direction of a Link: its bounded queue and the message held
// back for reordering, if any (under Link.mu).
type lane[T any] struct {
	ch   chan T
	held *T
}

// NewLink returns a link; net may be nil for a perfect network.
func NewLink(net *fault.NetInjector) *Link {
	return &Link{
		net:    net,
		frames: lane[Frame]{ch: make(chan Frame, linkQueue)},
		acks:   lane[Ack]{ch: make(chan Ack, linkQueue)},
	}
}

// SendFrame ships a frame toward the standby, subject to network faults.
// The frame crosses the link as bytes: it is serialized through the shared
// framing codec (internal/wire/frame) and decoded on the way in, exactly
// as a socket transport would carry it, so every replication test also
// exercises the codec.
func (l *Link) SendFrame(f Frame) {
	g, err := DecodeShipFrame(EncodeFrame(f))
	if err != nil {
		return // undecodable on arrival: the network ate a torn message
	}
	send(l, &l.frames, g)
}

// SendAck ships an ack toward the shipper, subject to the same faults and
// the same byte-level round trip as SendFrame.
func (l *Link) SendAck(a Ack) {
	b, err := DecodeAck(EncodeAck(a))
	if err != nil {
		return
	}
	send(l, &l.acks, b)
}

// send delivers m along one direction of l: the network may drop it,
// duplicate it, or hold it until the next message in that direction.
func send[T any](l *Link, d *lane[T], m T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	var out fault.NetOutcome
	if l.net != nil {
		out = l.net.Outcome()
	}
	if out.Drop {
		return
	}
	if out.Hold && d.held == nil {
		d.held = &m
		return
	}
	d.push(m)
	if out.Dup {
		d.push(m)
	}
	if d.held != nil {
		held := *d.held
		d.held = nil
		d.push(held)
	}
}

// push enqueues m; a full queue drops it, like a congested network path.
func (d *lane[T]) push(m T) {
	select {
	case d.ch <- m:
	default:
	}
}

// Frames is the standby's receive channel.
func (l *Link) Frames() <-chan Frame { return l.frames.ch }

// Acks is the shipper's receive channel.
func (l *Link) Acks() <-chan Ack { return l.acks.ch }

// Close makes subsequent sends no-ops (receivers drain what is queued).
func (l *Link) Close() {
	l.mu.Lock()
	l.closed = true
	l.frames.held, l.acks.held = nil, nil
	l.mu.Unlock()
}
