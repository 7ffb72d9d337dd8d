// Command mcmsim simulates one frame of the video-recording use case on a
// multi-channel memory configuration and reports access time, real-time
// verdict, bandwidth and power, reproducing a single data point of the
// paper's figures.
//
// Usage:
//
//	mcmsim -format 1080p30 -channels 4 -freq 400
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"strings"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/debugserver"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/units"
)

func main() {
	var (
		format   = flag.String("format", "720p30", "frame format: 720p30, 720p60, 1080p30, 1080p60, 2160p30, 2160p60")
		channels = flag.Int("channels", 1, "memory channel count (1, 2, 4, 8)")
		freqMHz  = flag.Float64("freq", 400, "interface clock in MHz (200-533 for the paper device; other -device entries carry their own range)")
		mux      = flag.String("mux", "rbc", "address multiplexing: rbc or brc")
		page     = flag.String("page", "open", "scheduling policy: "+strings.Join(controller.PolicyNames(), ", "))
		device   = flag.String("device", "", "DRAM datasheet: "+strings.Join(dram.DeviceNames(), ", ")+" (empty = paper)")
		noPD     = flag.Bool("no-powerdown", false, "disable aggressive power-down")
		fraction = flag.Float64("fraction", 1.0, "fraction of the frame traffic to simulate (extrapolated)")
		perChan  = flag.Bool("per-channel", false, "print per-channel power breakdown")
		stages   = flag.Bool("stages", false, "attribute access time and energy per pipeline stage")
		latency  = flag.Bool("latency", false, "print the per-burst latency histogram")
		wbuf     = flag.Int("write-buffer", 0, "posted-write buffer depth (0 = paper baseline)")
		queue    = flag.Int("queue", 0, "FR-FCFS reorder window depth (0 = in-order baseline)")
		refPost  = flag.Int("refresh-postpone", 0, "max postponed refreshes (0 = immediate)")
		preIdle  = flag.Bool("precharge-idle", false, "precharge all banks before power-down")

		probeWindow = flag.Int64("probe-window", 100000, "time-series epoch length in DRAM cycles (for -metrics-out)")
		traceOut    = flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON of the run to this file")
		metricsOut  = flag.String("metrics-out", "", "write windowed time-series metrics to this file (.json = JSON, else CSV)")
		checkRun    = flag.Bool("check", false, "verify every DRAM command against the device timing constraints (slower; violations are fatal)")

		faultSeed    = flag.Uint64("fault-seed", 1, "fault plan PRNG seed (same seed = byte-identical QoS report)")
		faultDrop    = flag.Int("fault-drop-channel", -1, "channel to fail permanently (-1 = no dropout)")
		faultDropAt  = flag.Int64("fault-drop-cycle", 0, "dispatch cycle of the dropout (0 = mid first frame slot)")
		faultDerate  = flag.Int64("fault-derate-cycle", 0, "cycle of the thermal derate doubling refresh rate (0 = off)")
		faultReadErr = flag.Float64("fault-read-error-rate", 0, "per-read probability of a transient ECC error (0 = off)")
		faultStall   = flag.Float64("fault-stall-rate", 0, "per-request probability of a controller stall (0 = off)")
		faultStallMx = flag.Int64("fault-stall-max", 0, "max stall length in cycles (0 = default)")
		faultFrames  = flag.Int("fault-frames", 8, "frame slots to run in degraded mode (with any -fault-* active)")
		qosOut       = flag.String("qos-out", "", "write the deterministic QoS report to this file")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")

		fidelity = flag.String("fidelity", "exact", "exact = cycle-accurate simulation; fast = closed-form analytic estimate (no verdict guarantee); auto = analytic when the calibration envelope proves the verdict, cycle-accurate fallback otherwise")

		cacheDir = flag.String("cache-dir", "", "serve the point from a content-addressed on-disk cache under this directory when present, storing it otherwise")
		noCache  = flag.Bool("no-cache", false, "simulate even when a cache would hit (output is byte-identical either way)")

		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /metrics.json, expvar and pprof on this host:port for the run's duration (e.g. 127.0.0.1:0)")
		summaryOut = flag.String("summary-out", "", "write a schema-versioned end-of-run summary JSON (manifest + metrics snapshot) to this file")
	)
	flag.Parse()

	if *probeWindow <= 0 {
		usageError("-probe-window must be positive, got %d", *probeWindow)
	}
	if *noCache && *cacheDir != "" {
		usageError("-no-cache conflicts with -cache-dir %q: the on-disk cache cannot be both used and disabled", *cacheDir)
	}
	if *debugAddr != "" {
		if err := debugserver.ValidateAddr(*debugAddr); err != nil {
			usageError("-debug-addr %q: %v", *debugAddr, err)
		}
	}
	if err := probe.CheckWritable(*summaryOut); err != nil {
		usageError("-summary-out not writable: %v", err)
	}
	tier, err := core.ParseFidelity(*fidelity)
	if err != nil {
		usageError("-fidelity: %v", err)
	}
	if tier != core.FidelityExact {
		// The analytic tiers produce no command stream, no per-burst
		// events and no per-frame payloads; every surface that consumes
		// those needs the cycle-accurate simulator.
		switch {
		case *checkRun:
			usageError("-check conflicts with -fidelity %s: the protocol checker needs the cycle-accurate command stream", tier)
		case *latency:
			usageError("-latency conflicts with -fidelity %s: the estimate has no per-burst latencies", tier)
		case *stages:
			usageError("-stages conflicts with -fidelity %s: stage attribution re-runs the simulator", tier)
		case *perChan:
			usageError("-per-channel conflicts with -fidelity %s: the estimate has no per-channel breakdown", tier)
		case *traceOut != "" || *metricsOut != "":
			usageError("-trace-out/-metrics-out conflict with -fidelity %s: estimates emit no event stream", tier)
		case *faultDrop >= 0 || *faultDerate != 0 || *faultReadErr != 0 || *faultStall != 0:
			usageError("fault injection conflicts with -fidelity %s: degraded-mode runs are always cycle-accurate", tier)
		}
	}

	// The registry exists only when some surface consumes it; otherwise the
	// instrumented layers keep their nil-check fast paths. Enabled before
	// the cache is built so its counters register.
	var reg *metrics.Registry
	if *debugAddr != "" || *summaryOut != "" {
		reg = metrics.NewRegistry()
		core.EnableMetrics(reg)
		defer core.EnableMetrics(nil)
	}
	if *debugAddr != "" {
		srv, err := debugserver.Start(*debugAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "mcmsim: debug: listening on %s\n", srv.Addr())
	}
	runStart := time.Now()

	if *cacheDir != "" {
		// Observed runs (-latency, -trace-out, -metrics-out, -check,
		// -fault-*) bypass the cache on their own; only the plain
		// access-time/power run is served content-addressed.
		cache, err := core.NewDiskSimCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		core.EnableCache(cache)
		defer func() { fmt.Fprintln(os.Stderr, "mcmsim: cache:", cache.Stats()) }()
	}
	for _, out := range []string{*traceOut, *metricsOut, *qosOut} {
		if err := probe.CheckWritable(out); err != nil {
			fatal(fmt.Errorf("output not writable: %w", err))
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	w, err := core.WorkloadFor(*format)
	if err != nil {
		fatal(err)
	}
	w.SampleFraction = *fraction
	w.RecordLatency = *latency

	mc := core.PaperMemory(*channels, units.Frequency(*freqMHz)*units.MHz)
	switch *mux {
	case "rbc":
		mc.Mux = mapping.RBC
	case "brc":
		mc.Mux = mapping.BRC
	default:
		usageError("unknown multiplexing %q (want rbc or brc)", *mux)
	}
	if mc.Policy, err = controller.ParsePolicy(*page); err != nil {
		usageError("-page: %v", err)
	}
	if _, err := dram.Device(*device); err != nil {
		usageError("-device: %v", err)
	}
	mc.Device = *device
	mc.DisablePowerDown = *noPD
	mc.WriteBufferDepth = *wbuf
	mc.QueueDepth = *queue
	mc.RefreshPostpone = *refPost
	mc.PrechargeOnIdle = *preIdle

	obs, err := probe.NewObserver(*channels, *probeWindow, *traceOut, *metricsOut)
	if err != nil {
		fatal(err)
	}
	if obs.Enabled() {
		mc.NewProbe = obs.Channel
	}
	if *traceOut != "" {
		// Run-level phase spans ride along in the Chrome trace on their own
		// wall-clock track next to the DRAM-cycle channel tracks.
		spans := probe.NewSpans()
		core.EnableSpans(spans)
		defer core.EnableSpans(nil)
		obs.SetSpans(spans)
	}

	var checker *check.Set
	if *checkRun {
		if checker, err = core.AttachChecker(&mc); err != nil {
			fatal(err)
		}
	}

	plan := fault.Plan{
		Seed:           *faultSeed,
		DerateAtCycle:  *faultDerate,
		ReadErrorRate:  *faultReadErr,
		StallRate:      *faultStall,
		StallMaxCycles: *faultStallMx,
	}
	if *faultDrop >= 0 {
		plan.DropChannel = *faultDrop
		plan.DropAtCycle = *faultDropAt
		if plan.DropAtCycle == 0 {
			// Default: halfway through the first (sampled) frame slot.
			period := w.Profile.Format.FramePeriod().Cycles(mc.Freq)
			plan.DropAtCycle = int64(float64(period)**fraction) / 2
		}
	}
	if plan.Enabled() {
		mc.Faults = &plan
		cycles := runDegraded(w, mc, obs, *faultFrames, *fraction, *probeWindow, *qosOut)
		reportCheck(checker)
		writeSummary(reg, *summaryOut, *fraction, *channels, *freqMHz, cycles, time.Since(runStart))
		return
	}

	start := time.Now()
	res, err := core.SimulateAuto(w, mc, tier)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	if obs.Enabled() {
		man := probe.NewManifest("mcmsim")
		man.Channels = res.Channels
		man.FreqMHz = float64(res.Freq) / float64(units.MHz)
		man.SampleFraction = *fraction
		man.Config = map[string]any{
			"mux": mc.Mux.String(), "page_policy": mc.Policy.String(),
			"device":    deviceName(mc.Device),
			"powerdown": !mc.DisablePowerDown, "write_buffer": mc.WriteBufferDepth,
			"queue_depth": mc.QueueDepth, "refresh_postpone": mc.RefreshPostpone,
			"precharge_on_idle": mc.PrechargeOnIdle, "probe_window": *probeWindow,
		}
		man.Workload = map[string]any{
			"format": res.Format.Name, "level": res.Level.Number,
			"frame_bytes": res.FrameBytes,
		}
		man.Finish(res.SimulatedCycles, wall)
		if err := obs.WriteOutputs(&man); err != nil {
			fatal(err)
		}
		fmt.Printf("observability: wrote %v\n", man.Outputs)
	}

	fmt.Printf("workload:   %s (H.264 level %s), %d B/frame (%.2f GB/s required)\n",
		res.Format, res.Level.Number, res.FrameBytes, res.RequiredBandwidth.GBps())
	fmt.Printf("memory:     %d channel(s) @ %v, %s, %s, %s, power-down %v\n",
		res.Channels, res.Freq, mc.Mux, mc.Policy, deviceName(mc.Device), !mc.DisablePowerDown)
	fmt.Printf("access:     %v per frame (budget %v)  ->  %s\n",
		res.AccessTime, res.FramePeriod, res.Verdict)
	if res.Estimated {
		fmt.Printf("fidelity:   analytic estimate (%s tier; error-bounded closed form, not simulated)\n", tier)
	}
	fmt.Printf("bandwidth:  %.2f GB/s achieved of %.2f GB/s peak (efficiency %.3f)\n",
		res.AchievedBandwidth.GBps(), res.PeakBandwidth.GBps(), res.Efficiency)
	if res.Estimated {
		fmt.Printf("power:      %.1f mW total (interface split not computed)\n",
			res.TotalPower.Milliwatts())
	} else {
		fmt.Printf("power:      %.1f mW total (interface %.1f mW)\n",
			res.TotalPower.Milliwatts(), res.InterfacePower.Milliwatts())
		fmt.Printf("activity:   %s\n", res.Totals)
	}
	if *perChan {
		for i, b := range res.PerChannel {
			fmt.Printf("  channel %d: %.2f mW (bg %.3f mJ, act %.3f mJ, rw %.3f mJ, ref %.3f mJ, io %.3f mJ)\n",
				i, b.AveragePower().Milliwatts(),
				b.Background.Millijoules(), b.Activate.Millijoules(),
				b.ReadWrite.Millijoules(), b.Refresh.Millijoules(), b.Interface.Millijoules())
		}
	}
	if *latency && res.Latency != nil {
		fmt.Printf("latency:    %s cycles (p50<=%d p99<=%d)\n",
			res.Latency, res.Latency.Quantile(0.5), res.Latency.Quantile(0.99))
	}
	if *stages {
		sres, err := core.SimulateStages(w, mc)
		if err != nil {
			fatal(err)
		}
		fmt.Println("per-stage attribution:")
		for _, s := range sres {
			fmt.Printf("  %-22s %10d B  %10.3f ms  %8.3f mJ  eff %.2f\n",
				s.Name, s.Bytes, s.Time.Milliseconds(), s.Energy.Millijoules(), s.Efficiency)
		}
	}
	reportCheck(checker)
	writeSummary(reg, *summaryOut, *fraction, *channels, *freqMHz, res.SimulatedCycles, time.Since(runStart))
}

// writeSummary emits the schema-versioned end-of-run summary (manifest plus
// the full metrics snapshot) when -summary-out is set. Confirmation goes to
// stderr so stdout stays byte-identical.
func writeSummary(reg *metrics.Registry, out string, fraction float64, channels int, freqMHz float64, cycles int64, wall time.Duration) {
	if out == "" {
		return
	}
	man := probe.NewManifest("mcmsim")
	man.Channels = channels
	man.FreqMHz = freqMHz
	man.SampleFraction = fraction
	man.Finish(cycles, wall)
	man.AddOutput("summary", out)
	if err := probe.NewSummary(man, reg.Snapshot()).Write(out); err != nil {
		fatal(fmt.Errorf("writing summary: %w", err))
	}
	fmt.Fprintf(os.Stderr, "mcmsim: summary: wrote %s\n", out)
}

// reportCheck prints the invariant checker's outcome; any violation of the
// device timing constraints is fatal with the full violation list on
// stderr. A nil set (checking disabled) is a no-op.
func reportCheck(set *check.Set) {
	if set == nil {
		return
	}
	if err := set.Err(); err != nil {
		for _, v := range set.Violations() {
			fmt.Fprintln(os.Stderr, "mcmsim: check:", v)
		}
		if n := set.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "mcmsim: check: %d further violations dropped\n", n)
		}
		fatal(err)
	}
	fmt.Println("check:      every DRAM command satisfied the device timing constraints")
}

// deviceName spells the -device selection for reports; the empty string
// is the paper baseline.
func deviceName(device string) string {
	d, err := dram.Device(device)
	if err != nil {
		return device
	}
	return d.Name
}

// usageError reports a flag-validation failure and exits with the usage
// status (2), matching the flag package's own error handling.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcmsim: %s\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

// runDegraded executes the fault-injected degraded-mode run and prints its
// QoS report plus the per-frame timeline. It returns the simulated cycle
// count for the run summary.
func runDegraded(w core.Workload, mc core.MemoryConfig, obs *probe.Observer, frames int, fraction float64, probeWindow int64, qosOut string) int64 {
	start := time.Now()
	res, err := core.SimulateDegraded(w, mc, frames)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)

	if obs.Enabled() {
		man := probe.NewManifest("mcmsim")
		man.Channels = res.Channels
		man.FreqMHz = float64(res.Freq) / float64(units.MHz)
		man.SampleFraction = fraction
		man.Config = map[string]any{
			"mux": mc.Mux.String(), "page_policy": mc.Policy.String(),
			"device":    deviceName(mc.Device),
			"powerdown": !mc.DisablePowerDown, "probe_window": probeWindow,
			"fault_plan": fmt.Sprintf("%+v", *mc.Faults),
		}
		man.Workload = map[string]any{
			"format": res.Format.Name, "level": res.Level.Number,
			"frame_bytes": res.FrameBytes, "frames": frames,
		}
		man.Finish(res.SimulatedCycles, wall)
		if err := obs.WriteOutputs(&man); err != nil {
			fatal(err)
		}
		fmt.Printf("observability: wrote %v\n", man.Outputs)
	}

	fmt.Printf("workload:   %s (H.264 level %s), %d B/frame, %d frame slot(s)\n",
		res.Format, res.Level.Number, res.FrameBytes, frames)
	fmt.Printf("memory:     %d channel(s) @ %v, fault plan %+v\n", res.Channels, res.Freq, *mc.Faults)
	fmt.Printf("verdict:    %s (final level %d, final format %s)\n", res.Verdict, res.FinalLevel, res.FinalFormat.Name)
	fmt.Printf("power:      %.1f mW total (interface %.1f mW)\n",
		res.TotalPower.Milliwatts(), res.InterfacePower.Milliwatts())
	fmt.Println("frames:")
	for _, fr := range res.PerFrame {
		status := "ok"
		switch {
		case fr.Dropped:
			status = "dropped"
		case fr.Missed:
			status = "MISS"
		case fr.Late:
			status = "late"
		}
		completed := "-"
		if !fr.Dropped {
			completed = fmt.Sprintf("%d", fr.Completed)
		}
		fmt.Printf("  frame %2d  level %d  deadline %10d  completed %10s  %s\n",
			fr.Frame, fr.Level, fr.Deadline, completed, status)
	}
	report := res.QoS.Report()
	fmt.Print(report)
	if qosOut != "" {
		if err := os.WriteFile(qosOut, []byte(report), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("qos report: wrote %s\n", qosOut)
	}
	return res.SimulatedCycles
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcmsim:", err)
	os.Exit(1)
}
