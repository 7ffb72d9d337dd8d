package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/stats"
)

// point is one simulation input in its wire form; lower gives the core
// types, through the same validation the service applies.
type point struct {
	req  server.SimulateRequest
	w    core.Workload
	mc   core.MemoryConfig
	tier core.Fidelity
}

func newPoint(req server.SimulateRequest) (point, error) {
	w, mc, err := req.Point()
	if err != nil {
		return point{}, fmt.Errorf("point %+v: %w", req, err)
	}
	tier := core.FidelityExact
	if req.Fidelity != "" {
		if tier, err = core.ParseFidelity(req.Fidelity); err != nil {
			return point{}, err
		}
	}
	return point{req: req, w: w, mc: mc, tier: tier}, nil
}

// answer is the checked part of one result: the wire CSV row plus, for
// simulated results, the raw counts that must repeat exactly.
type answer struct {
	row        string
	cycles     int64
	totals     stats.Channel
	perChannel []power.Breakdown
}

func answerFor(req server.SimulateRequest, res core.Result) answer {
	return answer{
		row:        rowFor(req, res),
		cycles:     res.SimulatedCycles,
		totals:     res.Totals,
		perChannel: res.PerChannel,
	}
}

// rowFor renders a result exactly as the service renders it for req, in
// the CSV form cmd/sweep prints.
func rowFor(req server.SimulateRequest, res core.Result) string {
	return server.SimulateResponse{
		Format:      res.Format.Name,
		Channels:    req.Channels,
		FreqMHz:     req.FreqMHz,
		FrameBytes:  res.FrameBytes,
		RequiredGB:  res.RequiredBandwidth.GBps(),
		AccessMS:    res.AccessTime.Milliseconds(),
		BudgetMS:    res.FramePeriod.Milliseconds(),
		Verdict:     res.Verdict.String(),
		Efficiency:  res.Efficiency,
		PowerMW:     res.TotalPower.Milliwatts(),
		InterfaceMW: res.InterfacePower.Milliwatts(),
		Estimated:   res.Estimated,
	}.CSVRow()
}

// reference computes every point's answer outside any timed window by the
// path the benchmark does not measure: no result cache, the subsystem
// dispatching serially (MemoryConfig.Serial), straight through
// core.SimulateAutoContext. Only the points run in parallel.
func reference(ctx context.Context, pts []point) ([]answer, error) {
	if core.EnabledCache() != nil {
		return nil, fmt.Errorf("reference: the process-wide result cache must be off")
	}
	return core.RunIndexedContext(ctx, nproc(), len(pts), func(i int) (answer, error) {
		p := pts[i]
		mc := p.mc
		// Auto answers must stay eligible for the analytic tier, which a
		// non-baseline spelling would forfeit; Serial changes only how the
		// exact path dispatches, never its result.
		if p.tier == core.FidelityExact {
			mc.Serial = true
		}
		res, err := core.SimulateAutoContext(ctx, p.w, mc, p.tier)
		if err != nil {
			return answer{}, fmt.Errorf("reference %s: %w", p.req.Format, err)
		}
		return answerFor(p.req, res), nil
	})
}

// corrupt flips one reference row, for the oracle's own test.
func corrupt(ref []answer) {
	ref[0].row += ",corrupted"
}

// digest hashes every answer (rows and raw simulated counts) in a canonical
// order, so two runs over the same inputs can be compared at a glance.
func digest(ref []answer) string {
	lines := make([]string, len(ref))
	for i, a := range ref {
		lines[i] = fmt.Sprintf("%s|%d|%+v", a.row, a.cycles, a.totals)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameSimulation reports whether an answer reproduces the reference's row,
// simulated cycles, totals and per-channel energies exactly.
func sameSimulation(got, want answer) bool {
	return got.row == want.row && got.cycles == want.cycles && got.totals == want.totals &&
		reflect.DeepEqual(got.perChannel, want.perChannel)
}
