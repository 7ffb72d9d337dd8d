// Command perfbench is the repository benchmark: one process that runs a
// workload against the simulator's public packages, checks every answer
// against a reference computed by another path, and prints every metric
// by name with its unit. The last line of standard output is the result
// record:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Without --trace it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics, measured by spans the benchmark records
// around its calls into each layer, and writes the spans to
// .bench_build/. See README.md for the workloads, metrics and layers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// hardLimit bounds one process: past it the watchdog exits non-zero even
// if teardown hangs. runLimit leaves the teardown time to finish first.
const (
	hardLimit = 175 * time.Second
	runLimit  = 160 * time.Second
)

// options is one run's configuration: the four command-line flags plus the
// sizing and fault hooks the smoke test uses.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// traceDir receives the traced run's span file.
	traceDir string

	// tiny shrinks every workload's inputs for the smoke test.
	tiny bool
	// corruptReference flips one reference answer, to prove the oracle
	// catches a wrong answer.
	corruptReference bool
	// onFleet, when set, receives every address the fleet listened on.
	onFleet func(addrs []string)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's checked operations, metrics and metadata.
type report struct {
	attempted int64
	failed    int64
	metrics   map[string]metric
	record    map[string]any
	// lines are the human-readable summary printed before the result.
	lines []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, record: map[string]any{}}
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// endToEndMetrics lists every metric an untraced run reports.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"points_per_s", "1/s"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"alloc_kb_per_op", "KB/op"},
}

// checkMetrics verifies the report carries exactly the listed metrics,
// each with its listed unit.
func checkMetrics(rep *report, want []struct{ name, unit string }) error {
	if len(rep.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(rep.metrics), len(want))
	}
	for _, m := range want {
		if got, ok := rep.metrics[m.name]; !ok || got.Unit != m.unit {
			return fmt.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
		}
	}
	return nil
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(ctx context.Context, opt options, rep *report) error{
	"grid-exact":    runGridExact,
	"policy-matrix": runPolicyMatrix,
	"fleet-mix":     runFleetMix,
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	watchdog := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: still running after %v; exiting\n", hardLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	// The first SIGINT/SIGTERM cancels the run, which then tears the fleet
	// down through the ordinary return path; a second one exits at once.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		first := true
		for s := range sigs {
			if !first {
				os.Exit(128 + int(s.(syscall.Signal)))
			}
			first = false
			fmt.Fprintf(os.Stderr, "perfbench: %v: stopping\n", s)
			cancel()
		}
	}()

	rep, err := run(ctx, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: grid-exact, policy-matrix or fleet-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := workloads[*workload]; !ok {
		return options{}, fmt.Errorf("unknown --workload %q (want grid-exact, policy-matrix or fleet-mix)", *workload)
	}
	if *seconds < 1 || *seconds > 60 {
		return options{}, fmt.Errorf("--seconds %d outside [1, 60]", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	return options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		traceDir: ".bench_build",
	}, nil
}

// run executes one workload. A panic anywhere on the run's own goroutine
// becomes an error, so the deferred teardown inside the workload has
// already run when run returns.
func run(ctx context.Context, opt options) (rep *report, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	rep = newReport()
	meta := hostMetadata()
	meta["workload"] = opt.workload
	meta["seed"] = opt.seed
	meta["seconds"] = opt.seconds.Seconds()
	meta["trace"] = opt.trace
	for k, v := range meta {
		rep.record[k] = v
	}
	if err := workloads[opt.workload](ctx, opt, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s: interrupted: %w", opt.workload, context.Cause(ctx))
	}
	if rep.attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	errorRate := float64(rep.failed) / float64(rep.attempted)
	rep.record["error_rate"] = errorRate
	rep.printf("error_rate %.6f (%d failed of %d attempted)", errorRate, rep.failed, rep.attempted)
	hwm, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.record["max_rss_mb"] = hwm
	rep.printf("peak RSS %.1f MB", hwm)
	if opt.trace {
		return rep, checkMetrics(rep, perLayerMetrics)
	}
	return rep, checkMetrics(rep, endToEndMetrics)
}

// writeReport prints the summary lines, the run record (metadata) and,
// last, the result object.
func writeReport(w io.Writer, rep *report) error {
	for _, l := range rep.lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(w, "%-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	rec, err := json.Marshal(rep.record)
	if err != nil {
		return fmt.Errorf("encoding run record: %w", err)
	}
	fmt.Fprintf(w, "record %s\n", rec)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// nproc is the CPU count the load generator and the sweep pool size to.
func nproc() int { return runtime.GOMAXPROCS(0) }
