package main

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/load"
	"repro/internal/memsys"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/usecase"
)

// pipeline is core.Simulate taken apart into its layers, so the traced run
// can time each one from outside: simcache key, load generation (drained
// into a slice first), memsys dispatch on a Reset system reused per
// configuration as core's pool does, the power model, and result assembly.
// Every answer it gives is checked against the reference.
type pipeline struct {
	mu      sync.Mutex
	gens    map[string]*load.Generator
	systems map[string]*sync.Pool
}

func newPipeline() *pipeline {
	return &pipeline{gens: map[string]*load.Generator{}, systems: map[string]*sync.Pool{}}
}

// layerCounts are one point's simulated counts and per-layer allocations.
type layerCounts struct {
	requests    int64 // memsys.Requests the generator emitted
	bursts      int64
	controller  stats.Channel // unscaled, summed over channels
	loadAlloc   uint64
	memsysAlloc uint64
}

func (c *layerCounts) add(o layerCounts) {
	c.requests += o.requests
	c.bursts += o.bursts
	c.controller.Add(o.controller)
	c.loadAlloc += o.loadAlloc
	c.memsysAlloc += o.memsysAlloc
}

// system returns a subsystem for msc, revived through Reset when one is
// pooled, and the function that pools it again after a successful run.
func (pl *pipeline) system(msc memsys.Config) (*memsys.System, func(), error) {
	key := fmt.Sprintf("%+v", msc)
	pl.mu.Lock()
	pool := pl.systems[key]
	if pool == nil {
		pool = &sync.Pool{}
		pl.systems[key] = pool
	}
	pl.mu.Unlock()
	if v := pool.Get(); v != nil {
		sys := v.(*memsys.System)
		sys.Reset()
		return sys, func() { pool.Put(sys) }, nil
	}
	sys, err := memsys.New(msc)
	if err != nil {
		return nil, nil, err
	}
	return sys, func() { pool.Put(sys) }, nil
}

// generator returns the shared immutable load generator for the workload.
func (pl *pipeline) generator(w core.Workload, channels int, g dram.Geometry) (*load.Generator, error) {
	key := fmt.Sprintf("%s|%d|%+v|%+v", w.Profile.Format.Name, channels, g, w.Load)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if gen := pl.gens[key]; gen != nil {
		return gen, nil
	}
	uc, err := usecase.New(w.Profile, usecase.DefaultParams())
	if err != nil {
		return nil, err
	}
	gen, err := load.New(uc, channels, g, w.Load)
	if err != nil {
		return nil, err
	}
	pl.gens[key] = gen
	return gen, nil
}

// fill builds a subsystem and a load generator for every point's
// configuration and pools them.
func (pl *pipeline) fill(pts []point) error {
	for _, p := range pts {
		lw, err := lower(p)
		if err != nil {
			return err
		}
		sys, release, err := pl.system(lw.msc)
		if err != nil {
			return err
		}
		if _, err := pl.generator(p.w, lw.msc.Channels, sys.Speed().Geometry); err != nil {
			return err
		}
		release()
	}
	return nil
}

// lowered is a point resolved the way core resolves it: the named
// device's datasheet folded into the zero-valued fields.
type lowered struct {
	msc       memsys.Config
	datasheet power.Datasheet
	powerDown bool
	fraction  float64
}

func lower(p point) (lowered, error) {
	if p.w.Params != (usecase.Params{}) || p.mc.Datasheet != nil || p.mc.Interface != nil ||
		p.mc.Geometry != (dram.Geometry{}) || p.mc.Timing != (dram.Timing{}) {
		return lowered{}, fmt.Errorf("pipeline: only wire-expressible points are decomposed")
	}
	d, err := dram.Device(p.mc.Device)
	if err != nil {
		return lowered{}, err
	}
	idd := d.IDDProfile()
	mc := p.mc
	fraction := p.w.SampleFraction
	if fraction == 0 {
		fraction = 1
	}
	return lowered{
		msc: memsys.Config{
			Channels:              mc.Channels,
			Freq:                  mc.Freq,
			Geometry:              d.Geometry,
			Timing:                d.Timing,
			Mux:                   mc.Mux,
			Policy:                mc.Policy,
			PowerDown:             !mc.DisablePowerDown,
			WriteBufferDepth:      mc.WriteBufferDepth,
			QueueDepth:            mc.QueueDepth,
			RefreshPostpone:       mc.RefreshPostpone,
			PrechargeOnIdle:       mc.PrechargeOnIdle,
			InterleaveGranularity: mc.InterleaveGranularity,
			Parallel:              mc.Channels > 1 && !mc.Serial,
		},
		datasheet: power.Datasheet{
			BaseFreq: idd.BaseFreq, BaseVDD: idd.BaseVDD, VDD: idd.VDD,
			IDD2P: idd.IDD2P, IDD3P: idd.IDD3P, IDD2N: idd.IDD2N, IDD3N: idd.IDD3N,
			IDD4R: idd.IDD4R, IDD4W: idd.IDD4W, IDD5: idd.IDD5, IDD6: idd.IDD6,
			ActPrechargeEnergy: idd.ActPrechargeEnergy,
		},
		powerDown: !mc.DisablePowerDown,
		fraction:  fraction,
	}, nil
}

// simulate answers one exact point layer by layer. tr (nil = untraced)
// records the layer spans under op; measureAlloc brackets the load and
// memsys layers with allocation counters, which only a serial caller can
// attribute. buf is the caller's reusable request slice.
func (pl *pipeline) simulate(p point, tr *tracer, op int64, buf *[]memsys.Request, measureAlloc bool) (answer, layerCounts, error) {
	var counts layerCounts
	pointStart := tr.now()
	defer func() { tr.record(layerPoint, noLayer, op, pointStart, tr.now()) }()

	start := tr.now()
	if _, ok := core.CacheKey(p.w, p.mc); !ok {
		return answer{}, counts, fmt.Errorf("pipeline: %s is not cacheable", p.req.Format)
	}
	tr.record(layerKey, layerPoint, op, start, tr.now())

	lw, err := lower(p)
	if err != nil {
		return answer{}, counts, err
	}

	start = tr.now()
	var before uint64
	if measureAlloc {
		before = totalAlloc()
	}
	geometry, err := dram.Resolve(lw.msc.Geometry, lw.msc.Timing, lw.msc.Freq)
	if err != nil {
		return answer{}, counts, err
	}
	gen, err := pl.generator(p.w, lw.msc.Channels, geometry.Geometry)
	if err != nil {
		return answer{}, counts, err
	}
	src, err := gen.Frame(lw.fraction)
	if err != nil {
		return answer{}, counts, err
	}
	reqs := (*buf)[:0]
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		reqs = append(reqs, r)
	}
	*buf = reqs
	if measureAlloc {
		counts.loadAlloc = totalAlloc() - before
	}
	counts.requests = int64(len(reqs))
	tr.record(layerLoad, layerPoint, op, start, tr.now())

	start = tr.now()
	if measureAlloc {
		before = totalAlloc()
	}
	sys, release, err := pl.system(lw.msc)
	if err != nil {
		return answer{}, counts, err
	}
	run, err := sys.Run(memsys.NewSliceSource(reqs))
	if err != nil {
		return answer{}, counts, err
	}
	if measureAlloc {
		counts.memsysAlloc = totalAlloc() - before
	}
	tr.record(layerMemsys, layerPoint, op, start, tr.now())
	counts.bursts = run.Bursts
	counts.controller = run.Totals()

	speed := sys.Speed()
	scale := 1 / lw.fraction
	cycles := int64(float64(run.Cycles) * scale)
	accessTime := speed.CycleDuration(cycles)
	framePeriod := p.w.Profile.Format.FramePeriod()
	frameBytes := gen.FrameBytes()
	res := core.Result{
		Format:          p.w.Profile.Format,
		Level:           p.w.Profile.Level,
		Channels:        p.mc.Channels,
		Freq:            p.mc.Freq,
		FrameBytes:      frameBytes,
		FramePeriod:     framePeriod,
		AccessTime:      accessTime,
		Verdict:         core.Classify(accessTime, framePeriod),
		SimulatedCycles: run.Cycles,
		PeakBandwidth:   sys.PeakBandwidth(),
	}
	res.RequiredBandwidth = units.Bandwidth(float64(frameBytes) / framePeriod.Seconds())
	if accessTime > 0 {
		res.AchievedBandwidth = units.Bandwidth(float64(frameBytes) / accessTime.Seconds())
	}
	if res.PeakBandwidth > 0 {
		res.Efficiency = float64(res.AchievedBandwidth) / float64(res.PeakBandwidth)
	}
	windowCycles := framePeriod.Cycles(speed.Freq)
	if cycles > windowCycles {
		windowCycles = cycles
	}

	start = tr.now()
	pm, err := power.NewModel(lw.datasheet, power.DefaultInterface(), speed)
	if err != nil {
		return answer{}, counts, err
	}
	for _, ch := range run.PerChannel {
		scaled := scaleStats(ch, scale)
		if scaled.BusyCycles > windowCycles {
			scaled.BusyCycles = windowCycles
		}
		b, err := pm.ChannelEnergy(scaled, windowCycles, lw.powerDown)
		if err != nil {
			return answer{}, counts, err
		}
		res.PerChannel = append(res.PerChannel, b)
		res.TotalPower += b.AveragePower()
		res.InterfacePower += b.InterfacePower()
		res.Totals.Add(scaled)
	}
	tr.record(layerPower, layerPoint, op, start, tr.now())
	release()
	return answerFor(p.req, res), counts, nil
}

// scaleStats extrapolates a sampled channel's linear counters by k, as
// core does for a sampled frame.
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
