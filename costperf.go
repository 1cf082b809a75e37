package costperf

import (
	"costperf/internal/bwtree"
	"costperf/internal/core"
	"costperf/internal/deuteronomy"
	"costperf/internal/llama"
	"costperf/internal/llama/logstore"
	"costperf/internal/lsm"
	"costperf/internal/masstree"
	"costperf/internal/sim"
	"costperf/internal/ssd"
	"costperf/internal/tc"
	"costperf/internal/workload"
)

// Cost model (paper Equations 1–8). These aliases re-export the model so
// downstream users work with the public package only.
type (
	// Costs holds the Section 4.1 infrastructure parameters.
	Costs = core.Costs
	// MainMemoryComparison parameterizes the Section 5 Bw-tree vs
	// MassTree analysis.
	MainMemoryComparison = core.MainMemoryComparison
	// CSSParams extends the model with compressed storage (Section 7.2).
	CSSParams = core.CSSParams
	// Figure is a regenerated paper figure (named series over an x axis).
	Figure = core.Figure
	// Series is one named data series of a Figure.
	Series = core.Series
	// Point is one sample of a Series.
	Point = core.Point
)

// PaperCosts returns the paper's Section 4.1 cost parameters.
func PaperCosts() Costs { return core.PaperCosts() }

// PaperComparison returns the paper's Section 5 point-experiment
// parameters (Mx ≈ 2.1, Px ≈ 2.6).
func PaperComparison() MainMemoryComparison { return core.PaperComparison() }

// DefaultCSS returns illustrative Figure 8 compression parameters.
func DefaultCSS() CSSParams { return core.DefaultCSS() }

// MixedThroughput is Equation 2; DeriveR is Equation 3.
func MixedThroughput(p0, f, r float64) float64 { return core.MixedThroughput(p0, f, r) }

// DeriveR recovers R from a measured (P0, PF) pair at miss fraction f
// (Equation 3).
func DeriveR(p0, pf, f float64) (float64, error) { return core.DeriveR(p0, pf, f) }

// Figure generators (paper Figures 1, 2, 3, 7, 8).
var (
	Figure1 = core.Figure1
	Figure2 = core.Figure2
	Figure3 = core.Figure3
	Figure7 = core.Figure7
	Figure8 = core.Figure8
	// Crossover locates where two sampled series intersect.
	Crossover = core.Crossover
)

// Simulation and device substrate.
type (
	// Session provides deterministic execution-cost accounting.
	Session = sim.Session
	// Tracker accumulates per-class operation costs (R, F, P0/PF).
	Tracker = sim.Tracker
	// CostProfile holds per-primitive execution charges.
	CostProfile = sim.CostProfile
	// Device is a simulated secondary-storage device.
	Device = ssd.Device
	// DeviceConfig describes a simulated device.
	DeviceConfig = ssd.Config
)

// NewSession creates a cost-accounting session.
func NewSession(p CostProfile) *Session { return sim.NewSession(p) }

// DefaultCostProfile returns the calibrated execution-cost profile.
func DefaultCostProfile() CostProfile { return sim.DefaultCosts() }

// NewDevice creates a simulated device.
func NewDevice(cfg DeviceConfig) *Device { return ssd.New(cfg) }

// Device presets (paper Sections 4.1, 7.1.2, 8.2, 8.3).
var (
	SamsungSSD    = ssd.SamsungSSD
	NextGenSSD    = ssd.NextGenSSD
	EnterpriseHDD = ssd.EnterpriseHDD
	CommodityHDD  = ssd.CommodityHDD
	NVRAM         = ssd.NVRAM
)

// Engine aliases.
type (
	// BwTree is the latch-free Bw-tree (Deuteronomy data component).
	BwTree = bwtree.Tree
	// MassTree is the main-memory comparator store.
	MassTree = masstree.Tree
	// LSMTree is the RocksDB-style log-structured merge tree.
	LSMTree = lsm.Tree
	// LogStore is LLAMA's log-structured storage layer.
	LogStore = logstore.Store
	// CacheManager applies eviction policy (LRU / five-minute rule).
	CacheManager = llama.Manager
	// TransactionComponent is the Deuteronomy TC.
	TransactionComponent = tc.TC
	// Tx is a transaction handle (snapshot isolation).
	Tx = tc.Tx
)

// Eviction policies for CacheManager.
const (
	PolicyNone      = llama.PolicyNone
	PolicyLRU       = llama.PolicyLRU
	PolicyBreakeven = llama.PolicyBreakeven
)

// NewMassTree creates a MassTree; session may be nil.
func NewMassTree(session *Session) *MassTree { return masstree.New(session) }

// DeuteronomyOptions configures NewDeuteronomy; the zero value is the
// paper's setup. Unlike in the stack's own config, a nil Session means a
// fresh one.
type DeuteronomyOptions = deuteronomy.Config

// Deuteronomy bundles the full data-caching stack: Bw-tree over LLAMA
// (cache manager + log-structured store) on a simulated SSD.
type Deuteronomy = deuteronomy.Stack

// NewDeuteronomy assembles the data-caching stack on opts.Device,
// recovering it if the device holds a checkpoint.
func NewDeuteronomy(opts DeuteronomyOptions) (*Deuteronomy, error) {
	if opts.Session == nil {
		opts.Session = sim.NewSession(sim.DefaultCosts())
	}
	return deuteronomy.Open(opts)
}

// OpenDeuteronomy recovers a checkpointed stack from an existing device.
func OpenDeuteronomy(device ssd.Dev, opts DeuteronomyOptions) (*Deuteronomy, error) {
	opts.Device = device
	return NewDeuteronomy(opts)
}

// NewLSM creates an LSM tree on a fresh Samsung-class device (or the one
// provided). session may be nil.
func NewLSM(device *Device, session *Session) (*LSMTree, error) {
	if device == nil {
		device = ssd.New(ssd.SamsungSSD)
	}
	return lsm.New(lsm.Config{Device: device, Session: session})
}

// NewTransactional stacks a Deuteronomy-style transaction component on a
// data component (use a Deuteronomy's Tree, or any DataComponent).
func NewTransactional(dc tc.DataComponent, logDevice *Device, session *Session) (*TransactionComponent, error) {
	if logDevice == nil {
		logDevice = ssd.New(ssd.SamsungSSD)
	}
	return tc.New(tc.Config{DC: dc, LogDevice: logDevice, Session: session})
}

// Workload generation.
type (
	// WorkloadMix is an operation mix (read/update/insert/blind/scan).
	WorkloadMix = workload.Mix
	// Generator produces operation streams.
	Generator = workload.Generator
	// GeneratorConfig configures a Generator.
	GeneratorConfig = workload.GeneratorConfig
	// Op is one generated operation.
	Op = workload.Op
)

// Standard mixes.
var (
	ReadOnly        = workload.ReadOnly
	ReadMostly      = workload.ReadMostly
	UpdateHeavy     = workload.UpdateHeavy
	BlindWriteHeavy = workload.BlindWriteHeavy
	ScanMix         = workload.ScanMix
)

// NewGenerator builds an operation generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) { return workload.NewGenerator(cfg) }

// Key chooser constructors.
var (
	NewUniformChooser    = workload.NewUniform
	NewZipfianChooser    = workload.NewZipfian
	NewHotColdChooser    = workload.NewHotCold
	NewSequentialChooser = workload.NewSequential
)

// Key renders record id i as an order-preserving 8-byte key.
func Key(i uint64) []byte { return workload.Key(i) }

// ValueFor deterministically generates a payload for key id i.
func ValueFor(i uint64, size int) []byte { return workload.ValueFor(i, size) }

// Extension model pieces (paper Sections 7.2 and 8.2, discussion items).
type (
	// NVRAMParams extends the model with a non-volatile memory tier.
	NVRAMParams = core.NVRAMParams
	// CMMParams models compressed main memory.
	CMMParams = core.CMMParams
)

// DefaultNVRAM returns illustrative Section 8.2 NVRAM parameters.
func DefaultNVRAM() NVRAMParams { return core.DefaultNVRAM() }

// DefaultCMM returns illustrative compressed-main-memory parameters.
func DefaultCMM() CMMParams { return core.DefaultCMM() }

// FigureNVRAM generates the three-tier residence cost chart.
var FigureNVRAM = core.FigureNVRAM

// LatencyModel estimates operation latencies (Section 8.1's microsecond
// discussion): MM operations complete in CPU time, SS operations add a
// device access.
type LatencyModel = core.LatencyModel

// PaperLatency returns the latency model with paper parameters.
func PaperLatency() LatencyModel { return core.PaperLatency() }
