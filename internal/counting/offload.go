// offload.go adds the edge/cloud offload decision point to the streaming
// scheduler: a hysteresis controller watches the input queue's
// depth and backpressure plus the enclosure temperature (telemetry,
// Fig. 10) and decides per frame whether the classify stage runs on the
// pole or ships the clusters to the backend over the quantized wire
// transport. Offloaded frames flow through the same reorder buffer as
// local ones, so ordered emission is preserved, and any remote failure
// falls back to local classification — no frame is ever dropped by
// offloading.
package counting

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hawccc/internal/obs"
	"hawccc/internal/wire"
)

// RemoteClassifier ships one frame's quantized cluster batch to a
// remote classify service and returns one label per cluster (true =
// human), positionally. The pipeline hands over the very batch it
// snapped its local classification lattice from (batch.Seq is the frame
// sequence; PoleID is zero — transports stamp their own), so remote
// classification sees bit-identical clouds to local. The batch is owned
// by the calling frame job and must not be retained after the call
// returns. Implementations must be safe for concurrent calls — the
// scheduler's workers offload frames in parallel.
type RemoteClassifier interface {
	ClassifyRemote(batch *wire.ClusterBatch) ([]bool, error)
}

// OffloadMode selects how the decision point behaves.
type OffloadMode int

const (
	// OffloadOff classifies every frame locally (the paper's fixed
	// edge split).
	OffloadOff OffloadMode = iota
	// OffloadForced ships every frame's clusters to the backend.
	OffloadForced
	// OffloadAdaptive applies the hysteresis controller per frame.
	OffloadAdaptive
)

// String returns the mode's flag spelling.
func (m OffloadMode) String() string {
	switch m {
	case OffloadForced:
		return "forced"
	case OffloadAdaptive:
		return "adaptive"
	default:
		return "off"
	}
}

// ParseOffloadMode parses a -offload flag value.
func ParseOffloadMode(s string) (OffloadMode, error) {
	switch s {
	case "off", "":
		return OffloadOff, nil
	case "forced":
		return OffloadForced, nil
	case "adaptive":
		return OffloadAdaptive, nil
	}
	return OffloadOff, fmt.Errorf("counting: unknown offload mode %q (want off, forced, or adaptive)", s)
}

// Default hysteresis thresholds. Enter temperature tracks the rated
// limit of the pole's accelerator (the backend alerts at the same
// bound); exit sits 5 °C below so a pole hovering at the limit does not
// flap.
const (
	DefaultEnterTempC     = 50.0
	DefaultExitTempC      = 45.0
	DefaultMinDwellFrames = 8
)

// OffloadConfig parameterizes the decision point.
type OffloadConfig struct {
	// Mode selects off / forced / adaptive.
	Mode OffloadMode
	// Remote performs the offloaded classification. Required for any
	// mode other than OffloadOff; a nil Remote disables offloading.
	// The shipped batch is the one the classify stage snapped to.
	Remote RemoteClassifier
	// The thresholds below stay fields, though no deployment sets them,
	// because the live thermal test has to switch the queue signals off.
	//
	// EnterQueueDepth: offload when the scheduler's input queue holds at
	// least this many waiting frames. 0 selects DefaultQueueDepth (a full
	// queue at the default depth); negative disables the depth signal.
	EnterQueueDepth int
	// EnterBackpressure: offload when at least this many input-queue
	// handoffs blocked since the previous decision. 0 selects 1;
	// negative disables the backpressure signal.
	EnterBackpressure int
	// EnterTempC / ExitTempC bound the thermal hysteresis band
	// (defaults DefaultEnterTempC / DefaultExitTempC). A negative
	// EnterTempC disables the thermal signal.
	EnterTempC, ExitTempC float64
	// MinDwellFrames is how many consecutive calm frames the controller
	// must see before an offloading pole returns to local
	// classification. Entry is immediate — shedding load is urgent;
	// exiting is conservative so the queue it just drained does not
	// refill instantly. 0 selects DefaultMinDwellFrames.
	MinDwellFrames int
}

// withDefaults resolves zero fields.
func (c OffloadConfig) withDefaults() OffloadConfig {
	if c.EnterQueueDepth == 0 {
		c.EnterQueueDepth = DefaultQueueDepth
	}
	if c.EnterBackpressure == 0 {
		c.EnterBackpressure = 1
	}
	if c.EnterTempC == 0 {
		c.EnterTempC = DefaultEnterTempC
	}
	if c.ExitTempC == 0 {
		c.ExitTempC = DefaultExitTempC
	}
	if c.MinDwellFrames <= 0 {
		c.MinDwellFrames = DefaultMinDwellFrames
	}
	return c
}

// OffloadController is the per-pole hysteresis decision point. It is
// fed three saturation signals — input-queue depth, input-queue
// backpressure events, and compartment temperature — and latches into
// the offloading state as soon as any signal trips its enter threshold,
// returning to local only after every signal has stayed below its exit
// threshold for MinDwellFrames consecutive frames.
//
// All methods are safe for concurrent use and safe on a nil receiver
// (a nil controller always decides local), so the zero StreamConfig
// costs nothing.
type OffloadController struct {
	cfg OffloadConfig

	tempBits atomic.Uint64 // last reported compartment °C (float64 bits)

	mu         sync.Mutex
	offloading bool
	calm       int    // consecutive calm frames while offloading
	lastBP     uint64 // input-queue blocked-handoff count at last decision

	switches            atomic.Uint64
	localN, remoteN     atomic.Uint64
	fallbackN           atomic.Uint64
	decLocal, decRemote *obs.Counter
	decFallback         *obs.Counter
	state               *obs.Gauge
	rtt                 *obs.Histogram
}

// NewOffloadController builds a controller; thresholds resolve their
// documented defaults.
func NewOffloadController(cfg OffloadConfig) *OffloadController {
	return &OffloadController{cfg: cfg.withDefaults()}
}

// Instrument registers the controller's series in reg: decision counts
// by outcome (hawc_offload_decisions_total{decision=local|remote|
// fallback}), the current state gauge (hawc_offload_state, 1 while
// offloading), and the remote round-trip latency histogram
// (hawc_offload_rtt_seconds). It returns c for chaining.
func (c *OffloadController) Instrument(reg *obs.Registry, extra ...obs.Label) *OffloadController {
	if c == nil {
		return c
	}
	dec := func(kind string) *obs.Counter {
		return reg.Counter("hawc_offload_decisions_total",
			"offload decisions by outcome (local, remote, fallback = remote failed and the frame was classified locally)",
			append([]obs.Label{obs.L("decision", kind)}, extra...)...)
	}
	c.decLocal = dec("local")
	c.decRemote = dec("remote")
	c.decFallback = dec("fallback")
	c.state = reg.Gauge("hawc_offload_state",
		"1 while the pole is shedding classification to the backend", extra...)
	c.rtt = reg.Histogram("hawc_offload_rtt_seconds",
		"round-trip latency of one offloaded cluster batch (ship, classify, labels back)",
		obs.LatencyBuckets(), extra...)
	return c
}

// SetTemperature feeds the controller the latest compartment reading
// (°C). The pole node calls this as telemetry is sampled.
func (c *OffloadController) SetTemperature(tempC float64) {
	if c == nil {
		return
	}
	c.tempBits.Store(math.Float64bits(tempC))
}

// Temperature returns the last reported compartment temperature.
func (c *OffloadController) Temperature() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.tempBits.Load())
}

// Offloading reports whether the controller is currently shedding.
func (c *OffloadController) Offloading() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.offloading
}

// Switches returns how many local↔remote state transitions have
// occurred (forced mode never transitions).
func (c *OffloadController) Switches() uint64 {
	if c == nil {
		return 0
	}
	return c.switches.Load()
}

// Decisions returns the cumulative per-frame decision counts: frames
// classified locally, frames classified remotely, and remote attempts
// that fell back to local after a transport failure (fallback frames
// are counted in fallback only, not in local).
func (c *OffloadController) Decisions() (local, remote, fallback uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.localN.Load(), c.remoteN.Load(), c.fallbackN.Load()
}

// ShouldOffload is the per-frame decision, called by stream workers
// with the input queue's current depth and cumulative blocked-send
// count. It records the decision in the controller's counters; a
// subsequent remote failure is reported via fellBack.
func (c *OffloadController) ShouldOffload(queueDepth int, blockedSends uint64) bool {
	if c == nil || c.cfg.Mode == OffloadOff || c.cfg.Remote == nil {
		return false
	}
	if c.cfg.Mode == OffloadForced {
		c.remoteN.Add(1)
		c.decRemote.Inc()
		c.state.Set(1)
		return true
	}
	offload := c.decide(queueDepth, blockedSends)
	if offload {
		c.remoteN.Add(1)
		c.decRemote.Inc()
	} else {
		c.localN.Add(1)
		c.decLocal.Inc()
	}
	return offload
}

// decide applies the hysteresis state machine (see DESIGN.md):
// LOCAL → OFFLOAD as soon as any signal trips its enter threshold;
// OFFLOAD → LOCAL after MinDwellFrames consecutive frames with every
// signal below its exit threshold.
func (c *OffloadController) decide(queueDepth int, blockedSends uint64) bool {
	temp := c.Temperature()
	c.mu.Lock()
	defer c.mu.Unlock()
	blocked := blockedSends - c.lastBP
	c.lastBP = blockedSends
	saturated := (c.cfg.EnterQueueDepth > 0 && queueDepth >= c.cfg.EnterQueueDepth) ||
		(c.cfg.EnterBackpressure > 0 && blocked >= uint64(c.cfg.EnterBackpressure)) ||
		(c.cfg.EnterTempC > 0 && temp >= c.cfg.EnterTempC)
	// A disabled enter signal (negative threshold) is excluded from the
	// calm test too: a signal that can never push the controller into
	// offloading must not be able to hold it there. Under live streaming
	// the input queue routinely holds a frame or two, so without this
	// gating a depth-disabled controller would never return local.
	calm := (c.cfg.EnterQueueDepth <= 0 || queueDepth == 0) &&
		(c.cfg.EnterBackpressure <= 0 || blocked == 0) &&
		(c.cfg.EnterTempC <= 0 || temp <= c.cfg.ExitTempC)
	if c.offloading {
		if calm {
			c.calm++
			if c.calm >= c.cfg.MinDwellFrames {
				c.offloading = false
				c.calm = 0
				c.switches.Add(1)
				c.state.Set(0)
			}
		} else {
			c.calm = 0
		}
	} else if saturated {
		c.offloading = true
		c.calm = 0
		c.switches.Add(1)
		c.state.Set(1)
	}
	return c.offloading
}

// classifyRemote performs the offloaded call, timing the round trip.
func (c *OffloadController) classifyRemote(batch *wire.ClusterBatch) ([]bool, error) {
	t0 := time.Now()
	labels, err := c.cfg.Remote.ClassifyRemote(batch)
	c.rtt.ObserveDuration(time.Since(t0))
	return labels, err
}

// fellBack records a remote attempt that failed and was classified
// locally instead. The frame's earlier remote decision is re-attributed
// to fallback so Decisions' categories stay disjoint.
func (c *OffloadController) fellBack() {
	if c == nil {
		return
	}
	c.remoteN.Add(^uint64(0))
	c.fallbackN.Add(1)
	c.decFallback.Inc()
}
