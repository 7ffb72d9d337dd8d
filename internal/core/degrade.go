package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/load"
	"repro/internal/memsys"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/usecase"
	"repro/internal/video"
)

// FrameQoS records how one frame slot of a degraded-mode run went. Cycle
// fields are in the run's (possibly sample-scaled) clock domain.
type FrameQoS struct {
	// Frame is the slot index; Level the degradation-ladder level the
	// frame was produced at (0 = full quality).
	Frame int
	Level int
	// Dropped marks a slot intentionally skipped by frame-rate
	// degradation; such slots carry no traffic and no verdict.
	Dropped bool
	// Start and Deadline bound the slot; Completed is the cycle the
	// frame's last memory access finished (0 when dropped).
	Start     int64
	Deadline  int64
	Completed int64
	// Late: finished inside the slot but consumed more than half the
	// processing margin (arrivals themselves extend to the end of the
	// pace window, so only the service tail beyond it counts). Missed:
	// finished after the slot — a deadline miss that escalates the
	// degradation ladder.
	Late   bool
	Missed bool
}

// DegradedResult is the outcome of a fault-injected degraded-mode run.
type DegradedResult struct {
	Result
	// PerFrame records every frame slot in order.
	PerFrame []FrameQoS
	// FinalLevel is the degradation-ladder level the run ended at.
	FinalLevel int
	// FinalFormat is the frame format after any resolution step-down.
	FinalFormat video.FrameFormat
	// BytesRead and BytesWritten total the payload actually moved (frames
	// the ladder dropped move nothing), unscaled by the sample fraction.
	BytesRead    int64
	BytesWritten int64
}

// The degradation ladder: after each deadline miss the engine steps the
// workload down one level and keeps recording rather than erroring out.
const (
	levelFull      = 0 // full quality
	levelHalfRate  = 1 // drop alternate frames (half effective frame rate)
	levelNoStab    = 2 // stabilization border off (1.0)
	levelStepDown  = 3 // resolution step-down (2160 -> 1080 -> 720, same fps)
	levelExhausted = 4 // nothing left to shed
)

// SimulateDegraded runs frames consecutive paced frame slots with the fault
// plan active, reacting to deadline misses by degrading the workload
// (frame rate, then stabilization, then resolution) instead of failing.
// The per-frame loop and every fault decision are deterministic: the same
// seed yields a byte-identical QoS report.
func SimulateDegraded(w Workload, mc MemoryConfig, frames int) (DegradedResult, error) {
	if frames <= 0 {
		return DegradedResult{}, fmt.Errorf("core: %d frames", frames)
	}
	if err := mc.Validate(); err != nil {
		return DegradedResult{}, err
	}
	if err := w.Validate(); err != nil {
		return DegradedResult{}, err
	}
	if w.Params == (usecase.Params{}) {
		w.Params = usecase.DefaultParams()
	}
	fraction := w.SampleFraction
	if fraction == 0 {
		fraction = 1
	}

	msc := mc.memsysConfig()
	msc.RecordLatency = w.RecordLatency
	sys, err := memsys.New(msc)
	if err != nil {
		return DegradedResult{}, err
	}
	speed := sys.Speed()

	// Generator for the current ladder state; rebuilt on level changes.
	profile := w.Profile
	params := w.Params
	newGen := func() (*load.Generator, error) {
		uc, err := usecase.New(profile, params)
		if err != nil {
			return nil, err
		}
		return load.New(uc, mc.Channels, speed.Geometry, w.Load)
	}
	gen, err := newGen()
	if err != nil {
		return DegradedResult{}, err
	}
	fullFrameBytes := gen.FrameBytes()

	framePeriod := w.Profile.Format.FramePeriod()
	periodCycles := framePeriod.Cycles(speed.Freq)
	paceCycles := int64(float64(periodCycles) * (1 - ProcessingMargin))
	// Sampled runs scale the slot with the traffic, like load.Paced, so the
	// arrival intensity — and the fault plan's cycle triggers, which the
	// caller states against the sampled timeline — are preserved.
	period := int64(float64(periodCycles) * fraction)
	pace := int64(float64(paceCycles) * fraction)
	if period < 1 || pace < 1 {
		return DegradedResult{}, fmt.Errorf("core: fraction %v collapses the frame slot", fraction)
	}

	qos := fault.NewQoS(frames)
	res := DegradedResult{FinalFormat: profile.Format}
	level := levelFull

	// announce emits a ladder event on every observed channel so degradation
	// and recovery show up on each trace track alongside the fault events.
	announce := func(kind probe.Kind, at int64, aux int64) {
		for _, ch := range sys.Channels() {
			if ch.Observed() {
				ch.Controller().EmitEvent(probe.Event{Kind: kind, Bank: -1, At: at, End: at, Aux: aux})
			}
		}
	}

	// escalate applies the next ladder step after frame f missed its slot.
	escalate := func(f int, at int64) error {
		for level < levelExhausted {
			level++
			switch level {
			case levelHalfRate:
				qos.Steps = append(qos.Steps, fault.Step{Frame: f, Action: "half frame rate (drop alternate frames)"})
			case levelNoStab:
				params.StabilizationBorder = 1.0
				qos.Steps = append(qos.Steps, fault.Step{Frame: f, Action: "stabilization off"})
			case levelStepDown:
				next, ok := stepDownProfile(profile)
				if !ok {
					continue // nothing smaller; ladder exhausted
				}
				qos.Steps = append(qos.Steps, fault.Step{Frame: f,
					Action: fmt.Sprintf("resolution %s -> %s", profile.Format.Name, next.Format.Name)})
				profile = next
			default:
				return nil // exhausted: keep recording at the floor
			}
			g, err := newGen()
			if err != nil {
				return err
			}
			gen = g
			announce(probe.KindDegrade, at, int64(level))
			return nil
		}
		return nil
	}

	// Live fault/QoS accounting: per-frame counter deltas rather than
	// per-event hooks, so the injection hot path stays untouched and a
	// -debug-addr scrape still sees the run advance frame by frame.
	meter := activeMeter.Load()
	var prevInj fault.Counters

	var lastRun memsys.Result
	var ran bool
	for f := 0; f < frames; f++ {
		start := int64(f) * period
		deadline := start + period
		fr := FrameQoS{Frame: f, Level: level, Start: start, Deadline: deadline}

		if level >= levelHalfRate && f%2 == 1 {
			fr.Dropped = true
			qos.DroppedFrames++
			if meter != nil {
				meter.framesDropped.Inc()
			}
			res.PerFrame = append(res.PerFrame, fr)
			continue
		}

		src, err := gen.PacedFrame(fraction, start, pace)
		if err != nil {
			return DegradedResult{}, err
		}
		run, err := sys.Run(src)
		if err != nil {
			return DegradedResult{}, err
		}
		lastRun, ran = run, true
		// memsys channel stats are cumulative across Run calls; byte counts
		// are per-run, so accumulate them here.
		res.BytesRead += run.BytesRead
		res.BytesWritten += run.BytesWritten

		if meter != nil {
			meter.framesSimulated.Inc()
			if inj := sys.Injector(); inj != nil {
				cur := inj.Counters()
				meter.faultInjections.Add((cur.ReadErrors + cur.Stalls + cur.Derates) -
					(prevInj.ReadErrors + prevInj.Stalls + prevInj.Derates))
				meter.faultRetries.Add(cur.Retries - prevInj.Retries)
				prevInj = cur
			}
		}

		fr.Completed = run.Cycles
		switch {
		case run.Cycles > deadline:
			fr.Missed = true
			qos.DeadlineMisses++
			if meter != nil {
				meter.deadlineMisses.Inc()
			}
			if qos.FirstMissFrame < 0 {
				qos.FirstMissFrame = f
			}
			qos.RecoveredFrame = -1 // a new miss re-opens recovery
			levelBefore := level
			if err := escalate(f, run.Cycles); err != nil {
				return DegradedResult{}, err
			}
			if meter != nil && level != levelBefore {
				meter.degradeSteps.Inc()
			}
		case run.Cycles > deadline-(period-pace)/2:
			fr.Late = true
			qos.LateFrames++
			if meter != nil {
				meter.framesLate.Inc()
			}
		}
		if !fr.Missed && qos.FirstMissFrame >= 0 && qos.RecoveredFrame < 0 {
			qos.RecoveredFrame = f
			announce(probe.KindRecover, run.Cycles, int64(f))
		}
		res.PerFrame = append(res.PerFrame, fr)
	}

	if inj := sys.Injector(); inj != nil {
		qos.Counters = inj.Counters()
	}
	if ran {
		qos.FailedChannel = lastRun.FailedChannel
		qos.DropClock = lastRun.DropClock
	}
	res.QoS = &qos
	res.FinalLevel = level
	res.FinalFormat = profile.Format

	// Aggregate result fields, mirroring the sustained runner.
	scale := 1 / fraction
	var makespanCycles int64
	if ran {
		makespanCycles = lastRun.Cycles
	}
	cycles := int64(float64(makespanCycles) * scale)
	res.Format = w.Profile.Format
	res.Level = w.Profile.Level
	res.Channels = mc.Channels
	res.Freq = mc.Freq
	res.FrameBytes = fullFrameBytes
	res.FramePeriod = framePeriod
	res.AccessTime = speed.CycleDuration(cycles / int64(frames))
	res.SimulatedCycles = makespanCycles
	// Verdict: how the run ended. Recovered (or never missed) is feasible
	// in its degraded mode; still missing at the end is infeasible.
	switch {
	case qos.Recovered() && qos.LateFrames == 0:
		res.Verdict = Feasible
	case qos.Recovered():
		res.Verdict = Marginal
	default:
		res.Verdict = Infeasible
	}
	res.RequiredBandwidth = units.Bandwidth(float64(fullFrameBytes) / framePeriod.Seconds())
	if t := speed.CycleDuration(cycles); t > 0 {
		res.AchievedBandwidth = units.Bandwidth(float64(res.BytesRead+res.BytesWritten) * scale / t.Seconds())
	}
	res.PeakBandwidth = sys.PeakBandwidth()
	if res.PeakBandwidth > 0 {
		res.Efficiency = float64(res.AchievedBandwidth) / float64(res.PeakBandwidth)
	}

	windowCycles := int64(frames) * periodCycles
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
		return DegradedResult{}, err
	}
	for _, ch := range sys.Channels() {
		scaled := scaleStats(ch.Stats(), scale)
		if scaled.BusyCycles > windowCycles {
			scaled.BusyCycles = windowCycles
		}
		b, err := pm.ChannelEnergy(scaled, windowCycles, !mc.DisablePowerDown)
		if err != nil {
			return DegradedResult{}, err
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
	return res, nil
}

// stepDownProfile returns the next smaller evaluated profile at the same
// frame rate (2160 -> 1080 -> 720), or ok=false at the floor.
func stepDownProfile(p video.Profile) (video.Profile, bool) {
	var nextHeight int
	switch {
	case p.Format.Height >= 2160:
		nextHeight = 1080
	case p.Format.Height >= 1080:
		nextHeight = 720
	default:
		return video.Profile{}, false
	}
	name := fmt.Sprintf("%dp%d", nextHeight, p.Format.FPS)
	next, err := video.ProfileFor(name)
	if err != nil {
		return video.Profile{}, false
	}
	return next, true
}
