// Integration tests driving real simulations through the probe layer:
// the windowed time series must reconstruct the controller's aggregate
// statistics exactly, and the event stream must honor the package's
// per-channel monotonic-timestamp contract across randomized workloads
// and controller configurations.
package probe_test

import (
	"math/rand"
	"testing"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/load"
	"repro/internal/memsys"
	"repro/internal/probe"
	"repro/internal/units"
	"repro/internal/usecase"
	"repro/internal/video"
)

// videoRequests generates a slice of the recording use case's transactions
// for a realistic request mix (sequential video streams plus scattered
// reference-frame reads).
func videoRequests(t *testing.T, channels int, fraction float64) []memsys.Request {
	t.Helper()
	prof, err := video.ProfileFor("720p30")
	if err != nil {
		t.Fatal(err)
	}
	l, err := usecase.New(prof, usecase.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := load.New(l, channels, dram.DefaultGeometry(), load.Config{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := gen.Frame(fraction)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []memsys.Request
	for {
		req, ok := src.Next()
		if !ok {
			return reqs
		}
		reqs = append(reqs, req)
	}
}

// randomRequests builds an adversarial workload: random addresses, sizes,
// read/write mix and bursty arrival gaps (long gaps trigger power-down and
// self-refresh residencies).
func randomRequests(rng *rand.Rand, n int) []memsys.Request {
	reqs := make([]memsys.Request, n)
	var arrival int64
	for i := range reqs {
		if rng.Intn(8) == 0 {
			arrival += int64(rng.Intn(200_000)) // long gap: power management kicks in
		} else {
			arrival += int64(rng.Intn(50))
		}
		reqs[i] = memsys.Request{
			Write:   rng.Intn(2) == 0,
			Addr:    int64(rng.Intn(1 << 24)),
			Bytes:   int64(1 + rng.Intn(4096)),
			Arrival: arrival,
		}
	}
	return reqs
}

// probeVariants are the controller configurations the contract tests run
// under; together they exercise the in-order path, the reorder queue, the
// posted-write buffer, refresh postponement, precharge-on-idle and the
// closed-page policy.
func probeVariants(channels int) map[string]memsys.Config {
	base := func() memsys.Config {
		return memsys.PaperConfig(channels, 400*units.MHz)
	}
	variants := map[string]memsys.Config{}
	variants["baseline"] = base()

	noPD := base()
	noPD.PowerDown = false
	variants["no-powerdown"] = noPD

	queued := base()
	queued.QueueDepth = 8
	queued.WriteBufferDepth = 4
	variants["queued+wbuf"] = queued

	tuned := base()
	tuned.RefreshPostpone = 4
	tuned.PrechargeOnIdle = true
	variants["refpost+preidle"] = tuned

	closed := base()
	closed.Policy = controller.ClosedPage
	variants["closed-page"] = closed
	return variants
}

// TestTimeSeriesMatchesAggregateStats is the acceptance check for the
// windowed collector: on a 2-channel run, summing each channel's epochs
// must reproduce the stats.Channel totals the controllers accumulated.
func TestTimeSeriesMatchesAggregateStats(t *testing.T) {
	const channels = 2
	reqs := videoRequests(t, channels, 0.02)
	if len(reqs) == 0 {
		t.Fatal("empty workload")
	}
	for name, cfg := range probeVariants(channels) {
		t.Run(name, func(t *testing.T) {
			ts, err := probe.NewTimeSeries(channels, 5000)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cfg
			cfg.NewProbe = ts.Channel
			sys, err := memsys.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run(memsys.NewSliceSource(reqs))
			if err != nil {
				t.Fatal(err)
			}
			for ch := 0; ch < channels; ch++ {
				got := ts.ChannelTotal(ch)
				want := res.PerChannel[ch]
				if got != want {
					t.Errorf("channel %d reconstruction mismatch:\n got  %+v\n want %+v", ch, got, want)
				}
				if len(ts.Epochs(ch)) < 2 {
					t.Errorf("channel %d produced %d epochs; want a real series", ch, len(ts.Epochs(ch)))
				}
			}
		})
	}
}

// TestEventTimestampsMonotonic is the property test for the probe
// contract: within one channel, At never decreases across the stream, an
// event whose End lags its At is one whose At was clamped forward (End is
// exact and never earlier than the original start, which is itself at
// most At), and every event carries its channel's index — across
// randomized workloads and all configuration variants.
func TestEventTimestampsMonotonic(t *testing.T) {
	const channels = 2
	for name, cfg := range probeVariants(channels) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				reqs := randomRequests(rand.New(rand.NewSource(seed)), 400)
				recs := make([]*probe.Recorder, channels)
				cfg := cfg
				cfg.NewProbe = func(ch int) probe.Sink {
					recs[ch] = &probe.Recorder{}
					return recs[ch]
				}
				sys, err := memsys.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(memsys.NewSliceSource(reqs)); err != nil {
					t.Fatal(err)
				}
				for ch, rec := range recs {
					if rec == nil || len(rec.Events) == 0 {
						t.Fatalf("seed %d: channel %d emitted no events", seed, ch)
					}
					var last int64
					for i, ev := range rec.Events {
						if ev.Channel != int32(ch) {
							t.Fatalf("seed %d: channel %d event %d tagged channel %d", seed, ch, i, ev.Channel)
						}
						if ev.At < last {
							t.Fatalf("seed %d: channel %d event %d (%v) At=%d went backwards from %d",
								seed, ch, i, ev.Kind, ev.At, last)
						}
						if ev.End < 0 {
							t.Fatalf("seed %d: channel %d event %d (%v) negative End=%d",
								seed, ch, i, ev.Kind, ev.End)
						}
						last = ev.At
					}
				}
			}
		})
	}
}

// TestTraceCollectorOnRealRun checks the Chrome exporter against a live
// simulation: every record carries the required fields and in-range ids.
func TestTraceCollectorOnRealRun(t *testing.T) {
	const channels = 2
	reqs := videoRequests(t, channels, 0.005)
	tr, err := probe.NewTrace(channels)
	if err != nil {
		t.Fatal(err)
	}
	cfg := memsys.PaperConfig(channels, 400*units.MHz)
	cfg.NewProbe = tr.Channel
	sys, err := memsys.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(memsys.NewSliceSource(reqs)); err != nil {
		t.Fatal(err)
	}
	if tr.Events() == 0 {
		t.Fatal("trace collected no events")
	}
	doc := tr.Build()
	if len(doc.TraceEvents) == 0 {
		t.Fatal("built trace has no records")
	}
	phases := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" {
			t.Fatalf("record %d missing name/ph: %+v", i, ev)
		}
		if ev.Pid < 0 || ev.Pid >= channels {
			t.Fatalf("record %d pid %d out of range", i, ev.Pid)
		}
		if ev.Ts < 0 {
			t.Fatalf("record %d negative ts: %+v", i, ev)
		}
		if ev.Ph == "X" && ev.Dur <= 0 {
			t.Fatalf("record %d zero-length slice: %+v", i, ev)
		}
		phases[ev.Ph] = true
	}
	for _, ph := range []string{"M", "X", "C", "i"} {
		if !phases[ph] {
			t.Errorf("trace has no %q records", ph)
		}
	}
}
