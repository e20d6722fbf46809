package core

import "github.com/vpir-sim/vpir/internal/obs"

// Observer binds the observability layer to one Machine: a registry of
// counters/gauges/histograms updated inline by the pipeline, a bounded
// ring-buffered structured event log, and an interval sampler that
// snapshots the full cumulative Stats (plus occupancy gauges and VPT/RB
// table activity) into a time series every Interval cycles.
//
// Attach one with Machine.AttachObserver before Run. A machine without an
// observer pays only a nil check per instrumentation site.
type Observer struct {
	reg      *obs.Registry
	events   *obs.EventLog
	series   *obs.Series
	interval uint64

	// Inline instruments (pre-resolved so the hot path never does a map
	// lookup).
	cSquash    *obs.Counter
	cSpurious  *obs.Counter
	cVPMisp    *obs.Counter
	cReuseHit  *obs.Counter
	cReuseAddr *obs.Counter
	cInval     *obs.Counter
	cWatchdog  *obs.Counter
	cFault     *obs.Counter
	cSkipped   *obs.Counter
	hBrLat     *obs.Histogram
	hROBOcc    *obs.Histogram
	hLSQOcc    *obs.Histogram
	gROB       *obs.Gauge
	gLSQ       *obs.Gauge
	gFetchQ    *obs.Gauge
	gIPC       *obs.Gauge
}

// DefaultMetricsInterval is the default sampling period in cycles.
const DefaultMetricsInterval = 10_000

// DefaultEventCap is the default event-log ring capacity.
const DefaultEventCap = 4096

// NewObserver builds an observer sampling every interval cycles (0 =
// DefaultMetricsInterval) with an event ring of eventCap entries (0 =
// DefaultEventCap).
func NewObserver(interval uint64, eventCap int) *Observer {
	if interval == 0 {
		interval = DefaultMetricsInterval
	}
	if eventCap == 0 {
		eventCap = DefaultEventCap
	}
	reg := obs.NewRegistry()
	o := &Observer{
		reg:      reg,
		events:   obs.NewEventLog(eventCap),
		series:   obs.NewSeries(SampleFields()),
		interval: interval,

		cSquash:    reg.Counter("squash.total"),
		cSpurious:  reg.Counter("squash.spurious"),
		cVPMisp:    reg.Counter("vp.mispredicts"),
		cReuseHit:  reg.Counter("reuse.hits"),
		cReuseAddr: reg.Counter("reuse.addr_hits"),
		cInval:     reg.Counter("reuse.invalidations"),
		cWatchdog:  reg.Counter("watchdog.trips"),
		cFault:     reg.Counter("faults.detected"),
		cSkipped:   reg.Counter("core.cycles.skipped"),
		hBrLat:     reg.Histogram("branch.resolve_latency", []float64{1, 2, 4, 8, 16, 32, 64}),
		hROBOcc:    reg.Histogram("rob.occupancy", []float64{0, 4, 8, 16, 24, 31}),
		hLSQOcc:    reg.Histogram("lsq.occupancy", []float64{0, 4, 8, 16, 24, 31}),
		gROB:       reg.Gauge("rob.occupancy_now"),
		gLSQ:       reg.Gauge("lsq.occupancy_now"),
		gFetchQ:    reg.Gauge("fetchq.len"),
		gIPC:       reg.Gauge("ipc"),
	}
	return o
}

// Registry exposes the instrument registry (for the Prometheus exporter).
func (o *Observer) Registry() *obs.Registry { return o.reg }

// Events exposes the structured event log.
func (o *Observer) Events() *obs.EventLog { return o.events }

// Series exposes the sampled time series.
func (o *Observer) Series() *obs.Series { return o.series }

// Interval returns the sampling period in cycles.
func (o *Observer) Interval() uint64 { return o.interval }

// AttachObserver wires an observer into the machine. Must be called
// before Run; passing nil detaches.
func (m *Machine) AttachObserver(o *Observer) { m.obs = o }

// Observer returns the attached observer (nil when observability is off).
func (m *Machine) Observer() *Observer { return m.obs }

// --- event emission (call sites guard with m.obs != nil) ---

func (o *Observer) squashEvent(cycle uint64, pc uint32, seq uint64, target uint32, spurious bool) {
	o.cSquash.Inc()
	var b uint64
	if spurious {
		o.cSpurious.Inc()
		b = 1
	}
	o.events.Append(obs.Event{Cycle: cycle, Kind: obs.EvSquash, PC: pc, Seq: seq, A: uint64(target), B: b})
}

func (o *Observer) vpMispredictEvent(cycle uint64, e *robEntry) {
	o.cVPMisp.Inc()
	o.events.Append(obs.Event{
		Cycle: cycle, Kind: obs.EvVPMispredict, PC: e.pc, Seq: e.seq,
		A: cycle - e.decodeCycle, B: uint64(e.execCount),
	})
}

func (o *Observer) reuseHitEvent(cycle uint64, e *robEntry, value uint64, wrongPath bool) {
	o.cReuseHit.Inc()
	var b uint64
	if wrongPath {
		b = 1
	}
	o.events.Append(obs.Event{Cycle: cycle, Kind: obs.EvReuseHit, PC: e.pc, Seq: e.seq, A: value, B: b})
}

func (o *Observer) reuseAddrHitEvent(cycle uint64, e *robEntry, addr uint32) {
	o.cReuseAddr.Inc()
	o.events.Append(obs.Event{Cycle: cycle, Kind: obs.EvReuseAddrHit, PC: e.pc, Seq: e.seq, A: uint64(addr)})
}

func (o *Observer) reuseInvalidateEvent(cycle uint64, pc uint32, seq uint64, killed int) {
	o.cInval.Add(uint64(killed))
	o.events.Append(obs.Event{Cycle: cycle, Kind: obs.EvReuseInvalidate, PC: pc, Seq: seq, A: uint64(killed)})
}

func (o *Observer) watchdogEvent(cycle uint64, pc uint32, seq uint64, stalled uint64) {
	o.cWatchdog.Inc()
	o.events.Append(obs.Event{Cycle: cycle, Kind: obs.EvWatchdog, PC: pc, Seq: seq, A: stalled})
}

func (o *Observer) faultEvent(cycle uint64, pc uint32, seq uint64, field string) {
	o.cFault.Inc()
	o.events.Append(obs.Event{Cycle: cycle, Kind: obs.EvFault, PC: pc, Seq: seq, Note: field})
}

// --- interval sampling ---

// extraSampleFields are the sample columns beyond the flattened Stats
// counters: instantaneous occupancy gauges, the cumulative IPC, and the
// VPT / address-VPT / reuse-buffer structural activity.
var extraSampleFields = []string{
	"ipc",
	"rob_occupancy", "lsq_occupancy", "fetchq_len", "unresolved_branches",
	"vpt_lookups", "vpt_predictions",
	"vpa_lookups", "vpa_predictions",
	"rb_tests", "rb_hits", "rb_addr_hits", "rb_chain_hits",
	"rb_inserts", "rb_evictions", "rb_store_kills",
}

// SampleFields returns the schema of interval samples: every core.Stats
// counter (snake_cased, cumulative) followed by the derived and component
// fields. The leading "cycle" column of exported series is implicit.
func SampleFields() []string {
	return append(StatsFieldNames(), extraSampleFields...)
}

// maybeSample is called once per cycle from step.
func (m *Machine) maybeSample() {
	o := m.obs
	if o.interval > 0 && m.cycle%o.interval == 0 && m.cycle > 0 {
		m.sampleObs()
	}
}

// sampleObs appends one sample of the full cumulative state.
func (m *Machine) sampleObs() {
	o := m.obs
	s := m.Stats()
	vals := StatsValues(s)

	ipc := s.IPC()
	o.gIPC.Set(ipc)
	o.gROB.Set(float64(m.robCount))
	o.gLSQ.Set(float64(m.lsqCount))
	o.gFetchQ.Set(float64(m.fetchCount))
	o.hROBOcc.Observe(float64(m.robCount))
	o.hLSQOcc.Observe(float64(m.lsqCount))

	var vptL, vptP, vpaL, vpaP uint64
	if m.vpt != nil {
		st := m.vpt.Stats()
		vptL, vptP = st.Lookups, st.Predictions
	}
	if m.vpa != nil {
		st := m.vpa.Stats()
		vpaL, vpaP = st.Lookups, st.Predictions
	}
	var rbs reuseStats
	if m.rb != nil {
		st := m.rb.Stats()
		rbs = reuseStats{st.Tests, st.Hits, st.AddrHits, st.ChainHits, st.Inserts, st.Evictions, st.StoreKills}
	}
	vals = append(vals,
		ipc,
		float64(m.robCount), float64(m.lsqCount), float64(m.fetchCount), float64(m.unresolved),
		float64(vptL), float64(vptP),
		float64(vpaL), float64(vpaP),
		float64(rbs.tests), float64(rbs.hits), float64(rbs.addrHits), float64(rbs.chainHits),
		float64(rbs.inserts), float64(rbs.evictions), float64(rbs.storeKills))
	o.series.Append(m.cycle, vals)
}

type reuseStats struct {
	tests, hits, addrHits, chainHits, inserts, evictions, storeKills uint64
}

// flushObs records the final sample and mirrors the end-of-run Stats into
// the registry as stats_* gauges so a Prometheus dump is self-contained.
// Called when the machine halts or aborts with an error.
func (m *Machine) flushObs() {
	o := m.obs
	if o == nil {
		return
	}
	m.sampleObs()
	names := StatsFieldNames()
	vals := StatsValues(m.Stats())
	for i, n := range names {
		o.reg.Gauge("stats." + n).Set(vals[i])
	}
}
