package main

// perLayerMetrics lists every metric a traced run reports, with its unit.
// A layer a workload never calls reports 0. Times are mean seconds per
// call into the layer; counts marked "per pass" cover one pass over the
// workload's simulated point set and repeat exactly for a given seed.
var perLayerMetrics = []struct{ name, unit string }{
	{"load.gen_s", "s"},
	{"load.requests", "count"}, // per pass
	{"load.alloc_mb", "MB"},    // per pass
	{"memsys.run_s", "s"},
	{"memsys.bursts", "count"}, // per pass
	{"memsys.bursts_per_s", "1/s"},
	{"memsys.alloc_mb", "MB"},         // per pass
	{"controller.accesses", "count"},  // per pass; base of row_hit_ratio
	{"controller.activates", "count"}, // per pass
	{"controller.row_hit_ratio", "ratio"},
	{"controller.refreshes", "count"},   // per pass
	{"controller.busy_cycles", "count"}, // per pass
	{"power.energy_s", "s"},
	{"core.assemble_s", "s"},
	{"core.queue_wait_s", "s"},
	{"simcache.key_s", "s"},
	{"simcache.lookups", "count"}, // base of hit_ratio
	{"simcache.hits", "count"},
	{"simcache.joins", "count"},
	{"simcache.simulated", "count"},
	{"simcache.hit_ratio", "ratio"},
	{"analytic.estimate_s", "s"},
	{"analytic.points", "count"},
	{"analytic.fallbacks", "count"},
	{"server.decode_s", "s"},
	{"server.handler_s", "s"},
	{"server.requests", "count"}, // base of shed and dedup_joined
	{"server.shed", "count"},
	{"server.dedup_joined", "count"},
	{"shard.handler_s", "s"},
	{"shard.self_s", "s"},
	{"shard.failovers", "count"},
	{"http.roundtrip_s", "s"},
	{"trace.untraced_op_s", "s"},
	{"trace.traced_op_s", "s"},
	{"trace.overhead_ratio", "ratio"}, // base: trace.untraced_op_s
}

func initLayerMetrics(rep *report) {
	for _, m := range perLayerMetrics {
		rep.set(m.name, 0, m.unit)
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

const mb = 1 << 20

// pipelineMetrics reports the layers below the cache from the decomposed
// pipeline: spans for times, the serial pass for counts and allocations.
func pipelineMetrics(rep *report, tab []layerStat, c layerCounts, pointsPerPass int) {
	rep.set("load.gen_s", tab[layerLoad].Mean, "s")
	rep.set("load.requests", float64(c.requests), "count")
	rep.set("load.alloc_mb", float64(c.loadAlloc)/mb, "MB")
	memsysS := tab[layerMemsys].Mean
	rep.set("memsys.run_s", memsysS, "s")
	rep.set("memsys.bursts", float64(c.bursts), "count")
	if memsysS > 0 {
		rep.set("memsys.bursts_per_s", float64(c.bursts)/(memsysS*float64(pointsPerPass)), "1/s")
	}
	rep.set("memsys.alloc_mb", float64(c.memsysAlloc)/mb, "MB")
	st := c.controller
	rep.set("controller.accesses", float64(st.Accesses()), "count")
	rep.set("controller.activates", float64(st.Activates), "count")
	rep.set("controller.row_hit_ratio", ratio(st.RowHits, st.Accesses()), "ratio")
	rep.set("controller.refreshes", float64(st.Refreshes), "count")
	rep.set("controller.busy_cycles", float64(st.BusyCycles), "count")
	rep.set("power.energy_s", tab[layerPower].Mean, "s")
	rep.set("core.assemble_s", tab[layerPoint].SelfMean, "s")
	rep.set("core.queue_wait_s", tab[layerQueue].Mean, "s")
}

// finishTrace reports the tracing overhead — the traced half's time per
// operation against the untraced half's — prints the self-time table and
// writes the span file.
func finishTrace(opt options, rep *report, tr *tracer, tab []layerStat, plain, traced passResult) error {
	untracedOp := plain.elapsed.Seconds() / float64(plain.ops)
	tracedOp := traced.elapsed.Seconds() / float64(traced.ops)
	rep.set("trace.untraced_op_s", untracedOp, "s")
	rep.set("trace.traced_op_s", tracedOp, "s")
	rep.set("trace.overhead_ratio", (tracedOp-untracedOp)/untracedOp, "ratio")
	rep.printf("tracing overhead: %.6f s/op traced vs %.6f s/op untraced (%d and %d ops)",
		tracedOp, untracedOp, traced.ops, plain.ops)
	printTable(rep, tab)
	path, err := tr.write(opt.traceDir, opt, tab, rep.record)
	if err != nil {
		return err
	}
	rep.printf("trace written to %s", path)
	return nil
}
