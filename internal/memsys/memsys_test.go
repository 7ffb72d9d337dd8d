package memsys

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/interconnect"
	"repro/internal/mapping"
	"repro/internal/units"
)

func zeroLinks(cfg Config) Config {
	z := interconnect.Link{}
	cfg.DRAMLink = &z
	cfg.OnChipLink = &z
	return cfg
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Channels: 0, Freq: 400 * units.MHz}); err == nil {
		t.Error("expected channels error")
	}
	if _, err := New(PaperConfig(4, 100*units.MHz)); err == nil {
		t.Error("expected frequency error")
	}
	bad := PaperConfig(4, 400*units.MHz)
	bad.Mux = mapping.Multiplexing(9)
	if _, err := New(bad); err == nil {
		t.Error("expected multiplexing error")
	}
	badLink := PaperConfig(1, 400*units.MHz)
	badLink.OnChipLink = &interconnect.Link{RequestCycles: -1}
	if _, err := New(badLink); err == nil {
		t.Error("expected on-chip link error")
	}
}

func TestDefaultsFillIn(t *testing.T) {
	s, err := New(Config{Channels: 2, Freq: 400 * units.MHz})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().Channels != 2 {
		t.Errorf("channels = %d", s.Config().Channels)
	}
	if got := s.Speed().Geometry; got != dram.DefaultGeometry() {
		t.Errorf("geometry = %+v", got)
	}
	if len(s.Channels()) != 2 {
		t.Errorf("instantiated %d channels", len(s.Channels()))
	}
}

func TestPeakBandwidth(t *testing.T) {
	// 8 channels x 32 bit x 2 x 400 MHz = 25.6 GB/s, the paper's
	// XDR-comparable configuration.
	s, err := New(PaperConfig(8, 400*units.MHz))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.PeakBandwidth().GBps(); math.Abs(got-25.6) > 1e-9 {
		t.Errorf("peak = %v GB/s, want 25.6", got)
	}
}

func TestRunRejectsBadRequests(t *testing.T) {
	s, err := New(PaperConfig(1, 400*units.MHz))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(NewSliceSource([]Request{{Bytes: 0}})); err == nil {
		t.Error("expected error for zero-byte transaction")
	}
	if _, err := s.Run(NewSliceSource([]Request{{Addr: -16, Bytes: 16}})); err == nil {
		t.Error("expected error for negative address")
	}
}

func TestEmptyRun(t *testing.T) {
	s, err := New(PaperConfig(2, 400*units.MHz))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(NewSliceSource(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 || res.Time != 0 || res.Bursts != 0 {
		t.Errorf("empty run result = %+v", res)
	}
	if res.Bandwidth() != 0 || res.BusUtilization() != 0 {
		t.Error("empty run should report zero rates")
	}
}

func TestBurstSplittingCountsWholeBursts(t *testing.T) {
	s, err := New(zeroLinks(PaperConfig(2, 400*units.MHz)))
	if err != nil {
		t.Fatal(err)
	}
	// 20 bytes starting at offset 10 touch bursts [0,16) and [16,32):
	// 2 bursts... the run extends to byte 30, still within the second
	// burst. An unaligned 40-byte run from 10 to 50 covers 4 bursts.
	res, err := s.Run(NewSliceSource([]Request{{Addr: 10, Bytes: 40}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Bursts != 4 {
		t.Errorf("bursts = %d, want 4 (bytes 10..50 cover chunks 0..64)", res.Bursts)
	}
	if res.BusBytes != 64 {
		t.Errorf("bus bytes = %d, want 64", res.BusBytes)
	}
	if res.BytesRead != 40 || res.BytesWritten != 0 {
		t.Errorf("payload = %d/%d, want 40/0", res.BytesRead, res.BytesWritten)
	}
	if res.Transactions != 1 {
		t.Errorf("transactions = %d, want 1", res.Transactions)
	}
}

func TestInterleaveSpreadsLoadEvenly(t *testing.T) {
	for _, m := range []int{1, 2, 4, 8} {
		s, err := New(zeroLinks(PaperConfig(m, 400*units.MHz)))
		if err != nil {
			t.Fatal(err)
		}
		// One large sequential transaction: "all the channels can be
		// used in a single master transaction" (paper section III).
		res, err := s.Run(NewSliceSource([]Request{{Addr: 0, Bytes: int64(m) * 4096}}))
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.PerChannel {
			if got := c.Accesses(); got != 256 {
				t.Errorf("M=%d channel %d accesses = %d, want 256", m, i, got)
			}
		}
	}
}

func TestSequentialReadApproachesPeak(t *testing.T) {
	s, err := New(zeroLinks(PaperConfig(4, 400*units.MHz)))
	if err != nil {
		t.Fatal(err)
	}
	// 8 MB sequential read.
	res, err := s.Run(NewSliceSource([]Request{{Addr: 0, Bytes: 8 << 20}}))
	if err != nil {
		t.Fatal(err)
	}
	eff := res.Bandwidth().GBps() / s.PeakBandwidth().GBps()
	if eff < 0.90 || eff > 1.0 {
		t.Errorf("sequential read efficiency = %.3f, want 0.90..1.0", eff)
	}
}

// Doubling the channel count roughly halves the access time (paper Fig. 3:
// "close to 2x speedup ... by double the number of exploited channels").
func TestChannelScaling(t *testing.T) {
	times := map[int]float64{}
	for _, m := range []int{1, 2, 4, 8} {
		s, err := New(zeroLinks(PaperConfig(m, 400*units.MHz)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(NewSliceSource([]Request{{Addr: 0, Bytes: 4 << 20}}))
		if err != nil {
			t.Fatal(err)
		}
		times[m] = res.Time.Seconds()
	}
	for _, pair := range [][2]int{{1, 2}, {2, 4}, {4, 8}} {
		ratio := times[pair[0]] / times[pair[1]]
		if ratio < 1.85 || ratio > 2.1 {
			t.Errorf("%dch/%dch speedup = %.2f, want ~2", pair[0], pair[1], ratio)
		}
	}
}

func TestMixedReadWriteResult(t *testing.T) {
	s, err := New(zeroLinks(PaperConfig(2, 400*units.MHz)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(NewSliceSource([]Request{
		{Addr: 0, Bytes: 4096},
		{Write: true, Addr: 1 << 20, Bytes: 4096},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesRead != 4096 || res.BytesWritten != 4096 {
		t.Errorf("payload = %d/%d", res.BytesRead, res.BytesWritten)
	}
	tot := res.Totals()
	if tot.Reads != 256 || tot.Writes != 256 {
		t.Errorf("totals = %+v", tot)
	}
	if res.BusUtilization() <= 0 || res.BusUtilization() > 1 {
		t.Errorf("utilization = %v", res.BusUtilization())
	}
}

func TestOnChipLatencyExtendsResult(t *testing.T) {
	base := zeroLinks(PaperConfig(1, 400*units.MHz))
	slow := PaperConfig(1, 400*units.MHz)
	slow.DRAMLink = &interconnect.Link{}
	slow.OnChipLink = &interconnect.Link{RequestCycles: 10, ResponseCycles: 10}

	run := func(cfg Config) int64 {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(NewSliceSource([]Request{{Addr: 0, Bytes: 256}}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if got, want := run(slow), run(base)+20; got != want {
		t.Errorf("slow on-chip makespan = %d, want %d", got, want)
	}
}

func TestResetAllowsRerun(t *testing.T) {
	s, err := New(zeroLinks(PaperConfig(2, 400*units.MHz)))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{{Addr: 0, Bytes: 1 << 16}}
	r1, err := s.Run(NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	r2, err := s.Run(NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Totals() != r2.Totals() {
		t.Errorf("rerun differs: %d vs %d cycles", r1.Cycles, r2.Cycles)
	}
}

func TestSliceSource(t *testing.T) {
	src := NewSliceSource([]Request{{Addr: 1, Bytes: 2}, {Addr: 3, Bytes: 4}})
	r1, ok := src.Next()
	if !ok || r1.Addr != 1 {
		t.Errorf("first = %+v ok=%v", r1, ok)
	}
	r2, ok := src.Next()
	if !ok || r2.Addr != 3 {
		t.Errorf("second = %+v ok=%v", r2, ok)
	}
	if _, ok := src.Next(); ok {
		t.Error("expected end of stream")
	}
}

// BRC mapping serializes a sequential stream into one bank and is never
// faster than RBC (paper section IV).
func TestRBCOutperformsBRCForStreaming(t *testing.T) {
	run := func(mux mapping.Multiplexing) float64 {
		cfg := zeroLinks(PaperConfig(1, 400*units.MHz))
		cfg.Mux = mux
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(NewSliceSource([]Request{{Addr: 0, Bytes: 1 << 20}}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Time.Seconds()
	}
	rbc, brc := run(mapping.RBC), run(mapping.BRC)
	if rbc >= brc {
		t.Errorf("RBC (%.3g s) should beat BRC (%.3g s) on a sequential stream", rbc, brc)
	}
}

// Closed-page policy is slower than open-page for the recording-style
// streaming load.
func TestOpenPageBeatsClosedPage(t *testing.T) {
	run := func(p controller.PagePolicy) int64 {
		cfg := zeroLinks(PaperConfig(1, 400*units.MHz))
		cfg.Policy = p
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(NewSliceSource([]Request{{Addr: 0, Bytes: 1 << 18}}))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if open, closed := run(controller.OpenPage), run(controller.ClosedPage); open >= closed {
		t.Errorf("open page (%d) should beat closed page (%d)", open, closed)
	}
}

// Conservation property: for arbitrary transaction lists, burst counts per
// channel sum to the total, bus bytes cover the payload, and makespan
// bounds every channel's busy time.
func TestRunConservationProperties(t *testing.T) {
	f := func(ops []uint32, mSel uint8) bool {
		channels := []int{1, 2, 4, 8}[mSel%4]
		sys, err := New(PaperConfig(channels, 400*units.MHz))
		if err != nil {
			return false
		}
		var reqs []Request
		var payload int64
		for _, op := range ops {
			r := Request{
				Write: op&1 == 1,
				Addr:  int64(op >> 8),
				Bytes: int64(op%2048) + 1,
			}
			payload += r.Bytes
			reqs = append(reqs, r)
		}
		res, err := sys.Run(NewSliceSource(reqs))
		if err != nil {
			return false
		}
		var chBursts int64
		for _, c := range res.PerChannel {
			chBursts += c.Accesses()
			if c.BusyCycles > res.Cycles {
				return false
			}
		}
		if chBursts != res.Bursts {
			return false
		}
		if res.BusBytes < payload {
			return false
		}
		if res.BytesRead+res.BytesWritten != payload {
			return false
		}
		return res.Transactions == int64(len(reqs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestInterleaveGranularityOverride(t *testing.T) {
	cfg := PaperConfig(4, 400*units.MHz)
	cfg.InterleaveGranularity = 64
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A 64-byte transaction now lands on a single channel.
	res, err := sys.Run(NewSliceSource([]Request{{Addr: 0, Bytes: 64}}))
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, c := range res.PerChannel {
		if c.Accesses() > 0 {
			active++
		}
	}
	if active != 1 {
		t.Errorf("64B transaction touched %d channels at 64B granularity, want 1", active)
	}
	// Non-multiple granularity is rejected.
	bad := PaperConfig(4, 400*units.MHz)
	bad.InterleaveGranularity = 24
	if _, err := New(bad); err == nil {
		t.Error("expected granularity error")
	}
}
