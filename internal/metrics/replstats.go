package metrics

import "fmt"

// ReplStats counts log-shipping replication activity between a primary and
// its warm standby (internal/repl). It lives in this package (rather than
// in repl) so internal/obs can fold it into CostSnapshots without importing
// the replication layer, mirroring how IOStats/MirrorStats/Health are
// shared. All counters are cumulative; the zero value is ready to use.
type ReplStats struct {
	// Shipper side.
	BatchesShipped Counter // frames handed to the transport (including resends)
	BytesShipped   Counter // payload bytes handed to the transport
	Resends        Counter // frames re-shipped after a timeout or nak
	AcksOK         Counter // positive acks received
	Naks           Counter // negative acks received (gap or fence)

	// Standby side.
	BatchesApplied Counter // frames durably logged and applied
	RecordsApplied Counter // commit records applied to the standby DC
	BytesApplied   Counter // payload bytes durably logged on the standby
	DupBatches     Counter // duplicate frames re-acked without reapplying
	GapNaks        Counter // out-of-order frames nak'd back to the shipper
	FencedFrames   Counter // frames rejected for carrying a stale epoch

	// Failover.
	Promotions   Counter // standby promotions to primary
	FencedWrites Counter // stale-primary commits rejected by the epoch gate

	// LSN gauges: the standby's applied LSN and the primary durable LSN
	// last observed by the standby (AppliedLSN lagging PrimaryDurable is
	// replication lag). The highest standby-acked LSN is Shipper.AckedLSN.
	AppliedLSN     Gauge
	PrimaryDurable Gauge
}

// LagBytes reports the standby's current apply lag in log bytes, as of the
// last frame it saw (never negative).
func (r *ReplStats) LagBytes() int64 {
	lag := r.PrimaryDurable.Value() - r.AppliedLSN.Value()
	if lag < 0 {
		return 0
	}
	return lag
}

// String renders the stats for experiment logs.
func (r *ReplStats) String() string {
	return fmt.Sprintf("shipped=%d/%dB resend=%d ack=%d nak=%d applied=%d/%dB dup=%d gap=%d fenced=%d/%d promotions=%d lag=%dB",
		r.BatchesShipped.Value(), r.BytesShipped.Value(), r.Resends.Value(),
		r.AcksOK.Value(), r.Naks.Value(),
		r.BatchesApplied.Value(), r.BytesApplied.Value(),
		r.DupBatches.Value(), r.GapNaks.Value(),
		r.FencedFrames.Value(), r.FencedWrites.Value(),
		r.Promotions.Value(), r.LagBytes())
}
