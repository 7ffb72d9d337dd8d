// Package core is the public API of the multi-channel memory study: it ties
// the video-recording load model to the multi-channel DRAM simulator and
// the power model, and exposes runners that regenerate every table and
// figure of the reproduced paper (Aho, Nikara, Tuominen, Kuusilinna, "A case
// for multi-channel memories in video recording", DATE 2009).
//
// The central entry point is Simulate: given a recording Workload and a
// MemoryConfig it returns the per-frame memory access time, the real-time
// verdict (feasible / marginal / infeasible against the frame period with
// the paper's 15 % processing margin), and the average power broken down by
// component and channel.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/load"
	"repro/internal/mapping"
	"repro/internal/memsys"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/usecase"
	"repro/internal/video"
)

// ProcessingMargin is the fraction of the frame period the paper reserves
// for data processing: a configuration is only "on the safe side" when the
// memory access time fits in (1 - ProcessingMargin) of the period.
const ProcessingMargin = 0.15

// MemoryConfig selects a memory subsystem configuration.
type MemoryConfig struct {
	// Channels is the channel count M (the paper evaluates 1, 2, 4, 8).
	Channels int
	// Freq is the interface clock (200-533 MHz).
	Freq units.Frequency
	// Mux selects RBC (paper default) or BRC address multiplexing.
	Mux mapping.Multiplexing
	// Policy selects the controller scheduling policy: open-page (paper
	// default), closed-page, FR-FCFS, or bank partitioning (see
	// controller.ParsePolicy for the accepted spellings).
	Policy controller.PagePolicy
	// Device names a registered DRAM datasheet (see dram.Devices): its
	// geometry, timing (with the device's legal clock range) and power
	// profile replace the paper defaults wherever this configuration
	// leaves them zero. Empty means the paper's estimated mobile DDR.
	Device string
	// DisablePowerDown turns off the paper's aggressive power-down
	// (ablation A2). The zero value keeps power-down enabled.
	DisablePowerDown bool
	// Geometry and Timing override the device; zero values use the
	// paper's estimated next-generation mobile DDR SDRAM.
	Geometry dram.Geometry
	Timing   dram.Timing
	// WriteBufferDepth > 0 enables the posted-write buffer extension in
	// every channel controller (conclusions: "advanced control
	// mechanisms"); zero is the paper's baseline.
	WriteBufferDepth int
	// QueueDepth > 0 inserts a per-channel FR-FCFS reorder window of
	// that many bursts (extension); zero is the in-order baseline.
	QueueDepth int
	// RefreshPostpone defers up to that many due refreshes to idle gaps
	// (extension); zero refreshes immediately like the paper.
	RefreshPostpone int
	// PrechargeOnIdle closes all banks before power-down so idle rests
	// in the cheaper precharge power-down state (extension).
	PrechargeOnIdle bool
	// InterleaveGranularity overrides the Table II channel-interleaving
	// chunk in bytes; zero uses the paper's 16-byte minimum burst.
	InterleaveGranularity int64
	// Datasheet and Interface override the power model; nil uses the
	// calibrated defaults.
	Datasheet *power.Datasheet
	Interface *power.Interface
	// NewProbe, when non-nil, attaches an observability event sink to
	// every channel controller (see internal/probe and
	// memsys.Config.NewProbe). Events cover only the simulated fraction
	// of the frame when sampling.
	NewProbe func(channel int) probe.Sink
	// Faults, when non-nil and enabled, injects the deterministic fault
	// plan into the subsystem (channel dropout, thermal refresh derate,
	// transient read errors, controller stall jitter — see internal/fault).
	// Nil keeps every hot path fault-free.
	Faults *fault.Plan
	// Deprecated: has no effect; channels always run on the calling goroutine.
	Serial bool
}

// PaperMemory returns the paper's baseline configuration at the given
// channel count and clock.
func PaperMemory(channels int, freq units.Frequency) MemoryConfig {
	return MemoryConfig{Channels: channels, Freq: freq}
}

// Workload describes the recording use case to simulate.
type Workload struct {
	// Profile pairs the frame format with its H.264/AVC level.
	Profile video.Profile
	// Params are the use-case constants; the zero value means the
	// paper's defaults (DefaultParams).
	Params usecase.Params
	// Load tunes the load model granularities; zero values use the
	// calibrated defaults.
	Load load.Config
	// SampleFraction in (0,1] simulates only that fraction of the frame
	// traffic and extrapolates linearly (the traffic is homogeneous, so
	// the makespan and power scale). Zero means 1 (full frame).
	SampleFraction float64
	// RecordLatency populates Result.Latency with the per-burst service
	// latency distribution (in DRAM cycles).
	RecordLatency bool
}

// WorkloadFor returns the paper workload for a format name such as
// "1080p30"; the extra Fig. 4 point "2160p60" is accepted too.
func WorkloadFor(format string) (Workload, error) {
	prof, err := video.ProfileFor(format)
	if err != nil {
		return Workload{}, err
	}
	return Workload{Profile: prof}, nil
}

// Verdict classifies a configuration against the real-time requirement.
type Verdict int

const (
	// Infeasible: the frame's memory accesses do not fit in the frame
	// period at all (a zero bar in the paper's Fig. 5).
	Infeasible Verdict = iota
	// Marginal: the accesses fit in the frame period, but not with the
	// 15 % processing margin — "cannot in reality be driven too close to
	// real-time requirements" (Fig. 3's "marginal").
	Marginal
	// Feasible: fits with the processing margin; the safe side.
	Feasible
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Infeasible:
		return "infeasible"
	case Marginal:
		return "MARGINAL"
	case Feasible:
		return "ok"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Classify applies the paper's real-time criterion.
func Classify(accessTime, framePeriod units.Duration) Verdict {
	switch {
	case accessTime > framePeriod:
		return Infeasible
	case float64(accessTime) > (1-ProcessingMargin)*float64(framePeriod):
		return Marginal
	default:
		return Feasible
	}
}

// Result is the outcome of one simulation.
type Result struct {
	Format   video.FrameFormat
	Level    video.Level
	Channels int
	Freq     units.Frequency

	// FrameBytes is the execution-memory traffic of one frame.
	FrameBytes int64
	// FramePeriod is the real-time budget (1/fps).
	FramePeriod units.Duration
	// AccessTime is the simulated time to perform one frame's memory
	// accesses (extrapolated when sampling).
	AccessTime units.Duration
	// Verdict classifies AccessTime against FramePeriod.
	Verdict Verdict
	// Estimated marks results produced by the closed-form analytic model
	// (the fast/auto fidelity tiers and the service's degraded mode)
	// rather than the cycle-accurate simulator. It rides through JSON the
	// same way the service's degraded flag does; absent means exact, so
	// cache entries written before the flag existed decode correctly.
	Estimated bool `json:",omitempty"`

	// RequiredBandwidth is FrameBytes over the frame period; Achieved is
	// over the access time; Peak is the configuration's theoretical max.
	RequiredBandwidth units.Bandwidth
	AchievedBandwidth units.Bandwidth
	PeakBandwidth     units.Bandwidth
	// Efficiency is achieved / peak: the sustained channel efficiency.
	Efficiency float64

	// TotalPower is the average memory subsystem power over the frame
	// period (or over the access time when infeasible), with slack spent
	// in power-down. InterfacePower is the equation-(1) share of it.
	TotalPower     units.Power
	InterfacePower units.Power
	// PerChannel itemizes each channel's energy.
	PerChannel []power.Breakdown

	// SimulatedCycles is the unextrapolated makespan of the cycles the
	// simulator actually executed (SampleFraction of the frame) — the
	// honest denominator for simulator-throughput reporting.
	SimulatedCycles int64

	// Totals aggregates the channel counters (scaled when sampling).
	Totals stats.Channel
	// Latency is the merged per-burst latency histogram in DRAM cycles
	// (nil unless Workload.RecordLatency was set). Latencies are raw
	// samples, not scaled by the sample fraction.
	Latency *stats.Histogram

	// QoS carries the fault-injection quality-of-service accounting (nil
	// unless MemoryConfig.Faults is set and enabled). Same seed, same
	// plan ⇒ byte-identical QoS.Report().
	QoS *fault.QoS
}

// applyDevice folds the named device's datasheet into the configuration's
// zero-value fields: geometry, timing (which carries the device clock
// range) and the power profile. Explicit overrides win over the entry.
// The device name is canonicalized — the paper baseline collapses to the
// empty string, so "paper" and "" are one configuration everywhere
// (cache keys, the analytic baseline check). Unknown names are left
// untouched; Validate rejects them before any simulation work.
func (mc MemoryConfig) applyDevice() MemoryConfig {
	d, err := dram.Device(mc.Device)
	if err != nil {
		return mc
	}
	if d.Name == dram.PaperDevice {
		mc.Device = ""
	} else {
		mc.Device = d.Name
	}
	if mc.Geometry == (dram.Geometry{}) {
		mc.Geometry = d.Geometry
	}
	if mc.Timing == (dram.Timing{}) {
		mc.Timing = d.Timing
	}
	if mc.Datasheet == nil {
		ds := powerDatasheet(d.IDDProfile())
		mc.Datasheet = &ds
	}
	return mc
}

// powerDatasheet converts a registry IDD profile to the power model's
// datasheet. The two structs mirror each other field for field (package
// power imports dram, so the conversion lives here); the paper entry
// reproduces power.DefaultDatasheet exactly.
func powerDatasheet(p dram.IDD) power.Datasheet {
	return power.Datasheet{
		BaseFreq:           p.BaseFreq,
		BaseVDD:            p.BaseVDD,
		VDD:                p.VDD,
		IDD2P:              p.IDD2P,
		IDD3P:              p.IDD3P,
		IDD2N:              p.IDD2N,
		IDD3N:              p.IDD3N,
		IDD4R:              p.IDD4R,
		IDD4W:              p.IDD4W,
		IDD5:               p.IDD5,
		IDD6:               p.IDD6,
		ActPrechargeEnergy: p.ActPrechargeEnergy,
	}
}

// memsysConfig lowers the MemoryConfig for the subsystem constructor.
func (mc MemoryConfig) memsysConfig() memsys.Config {
	return memsys.Config{
		Channels:              mc.Channels,
		Freq:                  mc.Freq,
		Geometry:              mc.Geometry,
		Timing:                mc.Timing,
		Mux:                   mc.Mux,
		Policy:                mc.Policy,
		PowerDown:             !mc.DisablePowerDown,
		WriteBufferDepth:      mc.WriteBufferDepth,
		QueueDepth:            mc.QueueDepth,
		RefreshPostpone:       mc.RefreshPostpone,
		PrechargeOnIdle:       mc.PrechargeOnIdle,
		InterleaveGranularity: mc.InterleaveGranularity,
		NewProbe:              mc.NewProbe,
		Faults:                mc.Faults,
	}
}

// scaleStats multiplies the linear counters by k (sampling extrapolation).
func scaleStats(st stats.Channel, k float64) stats.Channel {
	mul := func(v int64) int64 { return int64(float64(v) * k) }
	return stats.Channel{
		Reads:              mul(st.Reads),
		Writes:             mul(st.Writes),
		Activates:          mul(st.Activates),
		Precharges:         mul(st.Precharges),
		Refreshes:          mul(st.Refreshes),
		RowHits:            mul(st.RowHits),
		RowMisses:          mul(st.RowMisses),
		RowConflicts:       mul(st.RowConflicts),
		BusyCycles:         mul(st.BusyCycles),
		ReadBusCycles:      mul(st.ReadBusCycles),
		WriteBusCycles:     mul(st.WriteBusCycles),
		PowerDownCycles:    mul(st.PowerDownCycles),
		PrechargePDCycles:  mul(st.PrechargePDCycles),
		PowerDownExits:     mul(st.PowerDownExits),
		SelfRefreshCycles:  mul(st.SelfRefreshCycles),
		SelfRefreshEntries: mul(st.SelfRefreshEntries),
	}
}

// Simulate runs one frame of the workload on the memory configuration.
// When a process-wide cache is enabled (EnableCache) and the run is
// unobserved, the result is served content-addressed: overlapping
// experiments simulate each distinct point exactly once. Observed runs —
// probes, faults, latency recording, -check — always simulate.
func Simulate(w Workload, mc MemoryConfig) (Result, error) {
	return SimulateContext(context.Background(), w, mc)
}

// SimulateContext is Simulate with cancellation: a done ctx aborts the
// point between pipeline phases (generate / simulate / report) and while
// waiting on a shared single-flight computation, so a caller that stops
// caring — a disconnected service client, an interrupted sweep — stops
// burning CPU at the next phase boundary. The background-context
// spelling is exactly Simulate.
func SimulateContext(ctx context.Context, w Workload, mc MemoryConfig) (Result, error) {
	m := activeMeter.Load()
	sp := activeSpans.Load()
	if m == nil && sp == nil {
		// Disabled observability: the seed's exact path.
		if c := EnabledCache(); c != nil {
			res, _, err := c.simulate(ctx, w, mc, nil)
			return res, err
		}
		return simulateUncached(ctx, w, mc, nil)
	}
	// A lane is one worker track in the phase-span trace: with N pool
	// workers at most N points are in flight, so lowest-free-lane
	// acquisition renders as one track per worker.
	lane := sp.Acquire()
	defer lane.Release()
	if m != nil {
		m.pointsStarted.Inc()
		start := time.Now()
		defer func() {
			m.pointSeconds.Observe(time.Since(start).Seconds())
			m.pointsCompleted.Inc()
		}()
	}
	if c := EnabledCache(); c != nil {
		res, _, err := c.simulate(ctx, w, mc, lane)
		return res, err
	}
	return simulateUncached(ctx, w, mc, lane)
}

// simulate is the uncached Simulate: it runs the simulator unconditionally,
// reviving a pooled memory subsystem and sharing the immutable load
// generator where the configuration allows (see pool.go). lane, when
// non-nil, records the run's phase spans (generate/simulate/report). ctx
// is consulted at phase boundaries only — the engine's hot loop stays
// untouched (the disabled-overhead gate), and a sweep's points are small
// enough that boundary granularity is what cancellation latency needs.
func simulateUncached(ctx context.Context, w Workload, mc MemoryConfig, lane *probe.Lane) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := mc.Validate(); err != nil {
		return Result{}, err
	}
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	mc = mc.applyDevice()
	if w.Params == (usecase.Params{}) {
		w.Params = usecase.DefaultParams()
	}
	fraction := w.SampleFraction
	if fraction == 0 {
		fraction = 1
	}

	endPhase := lane.Phase("generate")
	msc := mc.memsysConfig()
	msc.RecordLatency = w.RecordLatency
	sys, release, err := acquireSystem(msc)
	if err != nil {
		return Result{}, err
	}
	gen, err := generatorFor(w.Profile, w.Params, mc.Channels, sys.Speed().Geometry, w.Load)
	if err != nil {
		return Result{}, err
	}
	src, err := gen.Frame(fraction)
	if err != nil {
		return Result{}, err
	}
	endPhase()

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	endPhase = lane.Phase("simulate")
	run, err := sys.Run(src)
	if err != nil {
		return Result{}, err
	}
	endPhase()

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	endPhase = lane.Phase("report")
	defer endPhase()
	speed := sys.Speed()
	scale := 1 / fraction
	cycles := int64(float64(run.Cycles) * scale)
	accessTime := speed.CycleDuration(cycles)
	framePeriod := w.Profile.Format.FramePeriod()
	frameBytes := gen.FrameBytes()

	res := Result{
		Format:          w.Profile.Format,
		Level:           w.Profile.Level,
		Channels:        mc.Channels,
		Freq:            mc.Freq,
		FrameBytes:      frameBytes,
		FramePeriod:     framePeriod,
		AccessTime:      accessTime,
		Verdict:         Classify(accessTime, framePeriod),
		SimulatedCycles: run.Cycles,
	}
	res.RequiredBandwidth = units.Bandwidth(float64(frameBytes) / framePeriod.Seconds())
	if accessTime > 0 {
		res.AchievedBandwidth = units.Bandwidth(float64(frameBytes) / accessTime.Seconds())
	}
	res.PeakBandwidth = sys.PeakBandwidth()
	if res.PeakBandwidth > 0 {
		res.Efficiency = float64(res.AchievedBandwidth) / float64(res.PeakBandwidth)
	}

	// Power over the frame period; when the run does not fit (infeasible)
	// report power over the actual makespan instead.
	windowCycles := framePeriod.Cycles(speed.Freq)
	if cycles > windowCycles {
		windowCycles = cycles
	}
	ds := power.DefaultDatasheet()
	if mc.Datasheet != nil {
		ds = *mc.Datasheet
	}
	iface := power.DefaultInterface()
	if mc.Interface != nil {
		iface = *mc.Interface
	}
	pm, err := power.NewModel(ds, iface, speed)
	if err != nil {
		return Result{}, err
	}
	for _, chStats := range run.PerChannel {
		scaled := scaleStats(chStats, scale)
		if scaled.BusyCycles > windowCycles {
			scaled.BusyCycles = windowCycles
		}
		b, err := pm.ChannelEnergy(scaled, windowCycles, !mc.DisablePowerDown)
		if err != nil {
			return Result{}, err
		}
		res.PerChannel = append(res.PerChannel, b)
		res.TotalPower += b.AveragePower()
		res.InterfacePower += b.InterfacePower()
		res.Totals.Add(scaled)
	}
	if w.RecordLatency {
		res.Latency = &stats.Histogram{}
		for _, ch := range sys.Channels() {
			res.Latency.Merge(ch.Latency())
		}
	}
	if inj := sys.Injector(); inj != nil {
		q := fault.NewQoS(1)
		q.Counters = inj.Counters()
		q.FailedChannel = run.FailedChannel
		q.DropClock = run.DropClock
		if res.Verdict == Infeasible {
			q.DeadlineMisses = 1
			q.FirstMissFrame = 0
		}
		res.QoS = &q
	}
	// The run completed cleanly, so the subsystem may serve the next
	// simulate after a Reset; error paths above abandon it instead.
	release()
	return res, nil
}
