package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/server"
)

// setupReps is how many times a grid run repeats its set-up; setup_s is
// the median.
const setupReps = 9

// gridExactPoints is cmd/sweep's default grid in its row order: 6 formats
// x {1,2,4,8} channels x {200..533} MHz, open page, paper device, at
// fraction 0.05. It is the paper's experiment, so no seed changes it.
func gridExactPoints(_ int64, tiny bool) ([]point, error) {
	formats, channels, freqs, fraction := core.FormatNames, core.PaperChannels, core.PaperFreqsMHz, 0.05
	if tiny {
		formats, channels, freqs, fraction = formats[:1], channels[:2], freqs[3:], 0.005
	}
	var reqs []server.SimulateRequest
	for _, f := range formats {
		for _, ch := range channels {
			for _, mhz := range freqs {
				reqs = append(reqs, server.SimulateRequest{Format: f, Channels: ch, FreqMHz: mhz, Fraction: fraction, Fidelity: "exact"})
			}
		}
	}
	return lowerAll(reqs)
}

// matrixPolicies and matrixDevices span the policy x device matrix; the
// open-page + paper cell is grid-exact's and is left out.
var (
	matrixPolicies = []string{"closed-page", "frfcfs", "bank-partition", "open-page"}
	matrixDevices  = []string{"paper", "lpddr4", "lpddr5", "xdr"}
)

// policyMatrixPoints draws one point per (policy, device, format): 15
// cells x 6 formats = 90 points at fraction 0.02, in (format, cell) order.
// Channel counts cycle through {1,2,4,8} across cells and formats, so every
// seed has the same cost mix; the seed draws each point's clock from its
// device's legal list.
func policyMatrixPoints(seed int64, tiny bool) ([]point, error) {
	rng := rand.New(rand.NewSource(seed))
	formats, fraction := core.FormatNames, 0.02
	type cell struct{ policy, device string }
	var cells []cell
	for _, p := range matrixPolicies {
		for _, d := range matrixDevices {
			if p != "open-page" || d != "paper" {
				cells = append(cells, cell{p, d})
			}
		}
	}
	if tiny {
		formats, fraction, cells = formats[:1], 0.002, []cell{{"frfcfs", "lpddr4"}, {"closed-page", "paper"}, {"bank-partition", "xdr"}}
	}
	var reqs []server.SimulateRequest
	for f, format := range formats {
		for i, c := range cells {
			dev, err := dram.Device(c.device)
			if err != nil {
				return nil, err
			}
			mhz := int(dev.Frequencies[rng.Intn(len(dev.Frequencies))] / 1e6)
			reqs = append(reqs, server.SimulateRequest{
				Format: format, Channels: core.PaperChannels[(f+i)%len(core.PaperChannels)],
				FreqMHz: mhz, Fraction: fraction,
				Fidelity: "exact", Policy: c.policy, Device: c.device,
			})
		}
	}
	return lowerAll(reqs)
}

func lowerAll(reqs []server.SimulateRequest) ([]point, error) {
	pts := make([]point, len(reqs))
	for i, r := range reqs {
		p, err := newPoint(r)
		if err != nil {
			return nil, err
		}
		pts[i] = p
	}
	return pts, nil
}

func runGridExact(ctx context.Context, opt options, rep *report) error {
	return runGrid(ctx, opt, rep, gridExactPoints)
}

func runPolicyMatrix(ctx context.Context, opt options, rep *report) error {
	return runGrid(ctx, opt, rep, policyMatrixPoints)
}

// passResult aggregates timed passes over a point set, or a closed-loop
// window. opRates and pointRates hold one rate per pass or window slice;
// the reported throughput is their median, so a short burst of
// contention from outside the process moves one sample, not the result.
type passResult struct {
	ops        int64
	points     int64
	elapsed    time.Duration
	lat        []time.Duration
	opRates    []float64
	pointRates []float64
	// slices holds a closed-loop window's latencies per slice.
	slices [][]time.Duration
}

func (a *passResult) add(b passResult) {
	a.ops += b.ops
	a.points += b.points
	a.elapsed += b.elapsed
	a.lat = append(a.lat, b.lat...)
	a.opRates = append(a.opRates, b.opRates...)
	a.pointRates = append(a.pointRates, b.pointRates...)
}

// throughputMetrics reports the median rates.
func throughputMetrics(rep *report, r passResult) {
	rep.set("points_per_s", median(r.pointRates), "1/s")
	rep.set("req_per_s", median(r.opRates), "1/s")
	rep.record["op_rates"] = r.opRates
}

// repeatFor runs whole passes until window has elapsed (at least one).
func repeatFor(ctx context.Context, window time.Duration, pass func() (passResult, error)) (passResult, int, error) {
	var agg passResult
	passes := 0
	for start := time.Now(); passes == 0 || time.Since(start) < window; passes++ {
		if err := ctx.Err(); err != nil {
			return agg, passes, err
		}
		r, err := pass()
		if err != nil {
			return agg, passes, err
		}
		agg.add(r)
	}
	return agg, passes, nil
}

// runGrid measures cache-cold sweeps of the workload's points: each pass
// answers every point through a fresh core.SimCache with nproc workers,
// as cmd/sweep does.
func runGrid(ctx context.Context, opt options, rep *report, build func(int64, bool) ([]point, error)) error {
	// Set-up builds the inputs and one subsystem and load generator per
	// configuration: the pools a sweep process fills before its points
	// run at steady state. The traced run's pipeline keeps the last ones.
	var pts []point
	var pl *pipeline
	setup, err := setupSeconds(setupReps, func() (err error) {
		if pts, err = build(opt.seed, opt.tiny); err != nil {
			return err
		}
		pl = newPipeline()
		return pl.fill(pts)
	})
	if err != nil {
		return err
	}
	ref, err := reference(ctx, pts)
	if err != nil {
		return err
	}
	if opt.corruptReference {
		corrupt(ref)
	}
	var cycles int64
	for _, a := range ref {
		cycles += a.cycles
	}
	rep.record["digest"] = digest(ref)
	rep.record["simulated_cycles"] = cycles
	rep.record["params"] = map[string]any{"points": len(pts), "fraction": pts[0].req.Fraction, "jobs": nproc(), "fidelity": "exact"}

	// The first pass fills core's subsystem pools and generator cache,
	// which every later sweep in a process reuses; it is checked but not
	// timed.
	var last core.CacheStats
	pass := func() (passResult, error) {
		r, st, err := corePass(ctx, pts, ref, rep)
		last = st
		return r, err
	}
	if _, err := pass(); err != nil {
		return err
	}
	if !opt.trace {
		before := totalAlloc()
		r, passes, err := repeatFor(ctx, opt.seconds, pass)
		if err != nil {
			return err
		}
		alloc := totalAlloc() - before
		rep.set("setup_s", setup, "s")
		throughputMetrics(rep, r)
		rep.set("alloc_kb_per_op", float64(alloc)/1024/float64(r.ops), "KB/op")
		latencyMetrics(rep, [][]time.Duration{r.lat})
		rep.record["passes"] = passes
		rep.printf("%s: %d passes, %d points in %.3f s", opt.workload, passes, r.points, r.elapsed.Seconds())
		return nil
	}

	// Traced run: the decomposed pipeline, half the window with spans off
	// and half with them on, so the difference is the tracing overhead.
	initLayerMetrics(rep)
	counts, err := allocPass(ctx, pl, pts, ref, rep)
	if err != nil {
		return err
	}
	tr := newTracer()
	passNo := int64(0)
	decomposed := func() (passResult, error) {
		passNo++
		r, c, err := decomposedPass(ctx, pl, pts, ref, tr, passNo, rep)
		if err == nil && c.controller != counts.controller {
			err = fmt.Errorf("controller counts differ between passes: %+v vs %+v", c.controller, counts.controller)
		}
		return r, err
	}
	tr.enabled.Store(false)
	plain, _, err := repeatFor(ctx, opt.seconds/2, decomposed)
	if err != nil {
		return err
	}
	tr.enabled.Store(true)
	traced, _, err := repeatFor(ctx, opt.seconds/2, decomposed)
	if err != nil {
		return err
	}
	tr.enabled.Store(false)
	tab := tr.table()
	pipelineMetrics(rep, tab, counts, len(pts))
	st := last
	rep.set("simcache.key_s", tab[layerKey].Mean, "s")
	rep.set("simcache.lookups", float64(st.Lookups()), "count")
	rep.set("simcache.hits", float64(st.MemHits+st.DiskHits-st.DedupJoins), "count")
	rep.set("simcache.joins", float64(st.DedupJoins), "count")
	rep.set("simcache.simulated", float64(st.Simulated), "count")
	rep.set("simcache.hit_ratio", ratio(st.MemHits+st.DiskHits, st.Lookups()), "ratio")
	return finishTrace(opt, rep, tr, tab, plain, traced)
}

// corePass answers every point once through a fresh cache, as cmd/sweep
// does, timing each point and checking it against the reference.
func corePass(ctx context.Context, pts []point, ref []answer, rep *report) (passResult, core.CacheStats, error) {
	cache := core.NewSimCache()
	lat := make([]time.Duration, len(pts))
	ok := make([]bool, len(pts))
	start := time.Now()
	_, err := core.RunIndexedContext(ctx, nproc(), len(pts), func(i int) (struct{}, error) {
		p := pts[i]
		t0 := time.Now()
		res, _, err := cache.SimulateTier(ctx, p.w, p.mc, p.tier)
		lat[i] = time.Since(t0)
		if err != nil {
			if ctx.Err() != nil {
				return struct{}{}, err
			}
			fmt.Fprintf(os.Stderr, "perfbench: point %d (%s): %v\n", i, p.req.Format, err)
			return struct{}{}, nil
		}
		ok[i] = sameSimulation(answerFor(p.req, res), ref[i])
		return struct{}{}, nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return passResult{}, core.CacheStats{}, err
	}
	tally(rep, ok)
	return passOf(len(pts), elapsed, lat), cache.Stats(), nil
}

// passOf is one pass over n points.
func passOf(n int, elapsed time.Duration, lat []time.Duration) passResult {
	rate := float64(n) / elapsed.Seconds()
	return passResult{ops: int64(n), points: int64(n), elapsed: elapsed, lat: lat,
		opRates: []float64{rate}, pointRates: []float64{rate}}
}

// tally counts one pass's checked answers into the report.
func tally(rep *report, ok []bool) {
	for _, good := range ok {
		rep.attempted++
		if !good {
			rep.failed++
		}
	}
}

// allocPass runs the decomposed pipeline serially over every point, so
// each layer's allocations are its own; it also proves the pipeline
// reproduces core's answers before any span is trusted.
func allocPass(ctx context.Context, pl *pipeline, pts []point, ref []answer, rep *report) (layerCounts, error) {
	var sum layerCounts
	var buf []memsys.Request
	ok := make([]bool, len(pts))
	for i, p := range pts {
		if err := ctx.Err(); err != nil {
			return sum, err
		}
		a, c, err := pl.simulate(p, nil, 0, &buf, true)
		if err != nil {
			return sum, err
		}
		ok[i] = sameSimulation(a, ref[i])
		sum.add(c)
	}
	tally(rep, ok)
	return sum, nil
}

// decomposedPass runs the pipeline over every point with nproc workers,
// recording each point's wait for a worker and its layer spans.
func decomposedPass(ctx context.Context, pl *pipeline, pts []point, ref []answer, tr *tracer, passNo int64, rep *report) (passResult, layerCounts, error) {
	lat := make([]time.Duration, len(pts))
	ok := make([]bool, len(pts))
	counts := make([]layerCounts, len(pts))
	errs := make([]error, len(pts))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	passStart := tr.now()
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []memsys.Request
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(pts) {
					return
				}
				op := passNo*int64(len(pts)) + int64(i)
				tr.record(layerQueue, noLayer, op, passStart, tr.now())
				t0 := time.Now()
				var a answer
				a, counts[i], errs[i] = pl.simulate(pts[i], tr, op, &buf, false)
				lat[i] = time.Since(t0)
				ok[i] = errs[i] == nil && sameSimulation(a, ref[i])
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return passResult{}, layerCounts{}, err
	}
	var sum layerCounts
	for i := range pts {
		if errs[i] != nil {
			return passResult{}, sum, errs[i]
		}
		sum.add(counts[i])
	}
	tally(rep, ok)
	return passOf(len(pts), elapsed, lat), sum, nil
}
