// Package memsys assembles the paper's complete memory subsystem (Fig. 2):
// M parallel channels behind a 16-byte channel interleave. Master
// transactions of any size are split into minimum-burst chunks, distributed
// over the channels per Table II, and executed by the per-channel
// controllers; the subsystem reports the aggregate access time, traffic and
// per-channel statistics.
package memsys

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/interconnect"
	"repro/internal/mapping"
	"repro/internal/probe"
	"repro/internal/stats"
	"repro/internal/units"
)

// Config describes one memory subsystem configuration.
type Config struct {
	// Channels is the channel count M; the paper evaluates 1, 2, 4, 8.
	Channels int
	// Freq is the interface clock, 200-533 MHz.
	Freq units.Frequency
	// Geometry and Timing describe the bank cluster; zero values take the
	// paper's defaults.
	Geometry dram.Geometry
	Timing   dram.Timing
	// Mux selects RBC (default, used for all paper results) or BRC.
	Mux mapping.Multiplexing
	// Policy selects the page policy (paper default: open page).
	Policy controller.PagePolicy
	// PowerDown enables power-down after the first idle cycle.
	PowerDown bool
	// DRAMLink and OnChipLink are the two interconnects of Fig. 2; nil
	// latencies (zero values) mean the defaults.
	DRAMLink   *interconnect.Link
	OnChipLink *interconnect.Link
	// RecordLatency enables per-access latency histograms.
	RecordLatency bool
	// WriteBufferDepth > 0 enables the controllers' posted-write buffers
	// (see controller.Config.WriteBufferDepth). Zero is the paper's
	// baseline.
	WriteBufferDepth int
	// QueueDepth > 0 inserts a per-channel FR-FCFS reorder window (see
	// channel.Config.QueueDepth). Zero is the paper's in-order baseline.
	QueueDepth int
	// RefreshPostpone and PrechargeOnIdle forward to the controllers
	// (see controller.Config).
	RefreshPostpone int
	PrechargeOnIdle bool
	// InterleaveGranularity overrides the channel-interleaving chunk in
	// bytes (paper Table II: 16, the minimum burst). Zero uses the burst
	// size; larger values must be multiples of it.
	InterleaveGranularity int64
	// Deprecated: has no effect; channels always run on the calling goroutine.
	Parallel bool
	// NoCoalesce forces per-burst dispatch even where the burst-run fast
	// path applies (see Run). Results are bit-identical either way — this
	// is a debugging/CI knob: the equivalence property test diffs
	// coalesced against per-burst runs.
	NoCoalesce bool
	// SynthCoalescedEvents keeps coalesced dispatch active even with
	// probes attached (see controller.Config.SynthCoalescedEvents): the
	// per-burst event stream is synthesized arithmetically and is
	// identical, event for event, to per-burst dispatch — the
	// internal/check differential oracle asserts exactly that. Leave unset
	// for ordinary observation.
	SynthCoalescedEvents bool
	// NewProbe, when non-nil, is called once per channel index at
	// construction and attaches the returned event sink to that channel's
	// controller (see internal/probe). A nil return leaves that channel
	// unobserved. Every sink is driven from the goroutine that calls
	// Run, in the channel's dispatch order.
	NewProbe func(channel int) probe.Sink
	// Faults, when non-nil and enabled, injects the deterministic seeded
	// fault plan (see internal/fault): channel dropout with re-interleave
	// over the survivors, thermal refresh derate, transient read errors
	// with ECC retry traffic, and controller stall jitter. Nil keeps every
	// hot path on the fault-free nil-check fast path, like NewProbe.
	Faults *fault.Plan
}

// PaperConfig returns the paper's baseline configuration at the given
// channel count and clock: RBC multiplexing, open page, aggressive
// power-down, default device.
func PaperConfig(channels int, freq units.Frequency) Config {
	return Config{
		Channels:  channels,
		Freq:      freq,
		Geometry:  dram.DefaultGeometry(),
		Timing:    dram.DefaultTiming(),
		Mux:       mapping.RBC,
		Policy:    controller.OpenPage,
		PowerDown: true,
	}
}

// Request is one master transaction: a sequential run of bytes read or
// written starting at a byte address. Arrival is the cycle the transaction
// becomes ready; saturated (access-time) runs use zero.
type Request struct {
	Write   bool
	Addr    int64
	Bytes   int64
	Arrival int64
	// Stream identifies the client the transaction belongs to (the load
	// model's pipeline streams). Policies that partition resources per
	// client (controller.BankPartition) key on it; every other policy
	// ignores it, and zero is always safe.
	Stream int
}

// Source supplies master transactions in program order.
type Source interface {
	// Next returns the next transaction, or ok=false at end of stream.
	Next() (req Request, ok bool)
}

// SliceSource adapts a slice of requests to a Source.
type SliceSource struct {
	reqs []Request
	i    int
}

// NewSliceSource returns a Source that replays reqs in order.
func NewSliceSource(reqs []Request) *SliceSource { return &SliceSource{reqs: reqs} }

// Next implements Source.
func (s *SliceSource) Next() (Request, bool) {
	if s.i >= len(s.reqs) {
		return Request{}, false
	}
	r := s.reqs[s.i]
	s.i++
	return r, true
}

// System is an instantiated memory subsystem.
type System struct {
	cfg        Config
	speed      dram.Speed
	interleave mapping.ChannelInterleave
	onchip     interconnect.Link
	chans      []*channel.Channel

	// Fault state. The dispatch clock is a deterministic lower bound on
	// the simulation time at the point of dispatch — the latest request
	// arrival seen, or the dispatched data-bus cycles spread evenly over
	// the live channels, whichever is larger — so the dropout trigger
	// depends only on the request stream, never on completion times.
	inj         *fault.Injector
	dropped     bool
	deadChannel int
	dropClock   int64
	survivors   []int                     // logical -> physical after dropout
	liveIlv     mapping.ChannelInterleave // Table II remap over M-1
	dispArrival int64                     // max request arrival dispatched
	dispBus     int64                     // data-bus cycles dispatched
}

// New builds the subsystem, validating the configuration.
func New(cfg Config) (*System, error) {
	if cfg.Channels <= 0 {
		return nil, fmt.Errorf("memsys: %d channels", cfg.Channels)
	}
	if cfg.Geometry == (dram.Geometry{}) {
		cfg.Geometry = dram.DefaultGeometry()
	}
	if cfg.Timing == (dram.Timing{}) {
		cfg.Timing = dram.DefaultTiming()
	}
	speed, err := dram.Resolve(cfg.Geometry, cfg.Timing, cfg.Freq)
	if err != nil {
		return nil, err
	}
	dramLink := interconnect.DefaultDRAMLink()
	if cfg.DRAMLink != nil {
		dramLink = *cfg.DRAMLink
	}
	onchip := interconnect.DefaultOnChipLink()
	if cfg.OnChipLink != nil {
		onchip = *cfg.OnChipLink
	}
	if err := onchip.Validate(); err != nil {
		return nil, err
	}
	gran := cfg.InterleaveGranularity
	if gran == 0 {
		gran = cfg.Geometry.BurstBytes()
	}
	if gran%cfg.Geometry.BurstBytes() != 0 {
		return nil, fmt.Errorf("memsys: interleave granularity %d not a multiple of the %d-byte burst",
			gran, cfg.Geometry.BurstBytes())
	}
	interleave, err := mapping.NewChannelInterleave(cfg.Channels, gran)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, speed: speed, interleave: interleave, onchip: onchip, deadChannel: -1}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		inj, err := fault.NewInjector(*cfg.Faults, cfg.Channels)
		if err != nil {
			return nil, err
		}
		s.inj = inj
	}
	for i := 0; i < cfg.Channels; i++ {
		var sink probe.Sink
		if cfg.NewProbe != nil {
			sink = cfg.NewProbe(i)
		}
		var chInj *fault.ChannelInjector
		if s.inj != nil {
			chInj = s.inj.Channel(i)
		}
		ch, err := channel.New(channel.Config{
			Controller: controller.Config{
				Speed:                speed,
				Mux:                  cfg.Mux,
				Policy:               cfg.Policy,
				PowerDown:            cfg.PowerDown,
				RecordLatency:        cfg.RecordLatency,
				WriteBufferDepth:     cfg.WriteBufferDepth,
				RefreshPostpone:      cfg.RefreshPostpone,
				PrechargeOnIdle:      cfg.PrechargeOnIdle,
				Probe:                sink,
				SynthCoalescedEvents: cfg.SynthCoalescedEvents,
				Channel:              i,
				Faults:               chInj,
			},
			DRAMLink:   dramLink,
			QueueDepth: cfg.QueueDepth,
			Faults:     chInj,
		})
		if err != nil {
			return nil, err
		}
		s.chans = append(s.chans, ch)
	}
	return s, nil
}

// Config returns the subsystem configuration.
func (s *System) Config() Config { return s.cfg }

// Speed returns the resolved device timing.
func (s *System) Speed() dram.Speed { return s.speed }

// PeakBandwidth returns the aggregate theoretical bandwidth of all channels.
func (s *System) PeakBandwidth() units.Bandwidth {
	return units.Bandwidth(float64(s.cfg.Channels)) * s.speed.PeakBandwidth()
}

// Channels returns the instantiated channels.
func (s *System) Channels() []*channel.Channel { return s.chans }

// Result summarizes one simulation run.
type Result struct {
	// Cycles is the makespan: the DRAM cycle the last data beat of the
	// run left any channel's bus, including the on-chip return latency.
	Cycles int64
	// Time is the makespan in wall time — the paper's "access time".
	Time units.Duration
	// BytesRead and BytesWritten count the payload the master moved.
	BytesRead    int64
	BytesWritten int64
	// BusBytes counts bytes moved on the DRAM buses (whole bursts,
	// including padding for unaligned requests).
	BusBytes int64
	// Transactions counts master transactions; Bursts counts the
	// minimum-burst accesses they were split into.
	Transactions int64
	Bursts       int64
	// PerChannel holds each channel's statistics.
	PerChannel []stats.Channel
	// FailedChannel is the channel the fault plan dropped (-1 = none);
	// DropClock is the dispatch-clock cycle the dropout fired at. A
	// dropout persists across Run calls on the same System.
	FailedChannel int
	DropClock     int64
}

// Totals aggregates the per-channel statistics (counts summed, makespan
// maxed).
func (r Result) Totals() stats.Channel {
	var t stats.Channel
	for _, c := range r.PerChannel {
		t.Add(c)
	}
	return t
}

// Bandwidth returns the payload bandwidth achieved over the makespan.
func (r Result) Bandwidth() units.Bandwidth {
	if r.Time <= 0 {
		return 0
	}
	return units.Bandwidth(float64(r.BytesRead+r.BytesWritten) / r.Time.Seconds())
}

// BusUtilization returns the mean fraction of the makespan each channel's
// data bus carried data.
func (r Result) BusUtilization() float64 {
	if r.Cycles <= 0 || len(r.PerChannel) == 0 {
		return 0
	}
	var data int64
	for _, c := range r.PerChannel {
		data += c.DataBusCycles()
	}
	// Channels may finish at different times; normalize by the global
	// makespan to measure delivered fraction of peak.
	return float64(data) / float64(int64(len(r.PerChannel))*r.Cycles)
}

// Run executes all transactions from src and returns the aggregate result.
// Transactions are split into burst-sized chunks and dispatched to their
// channels in program order, on the calling goroutine.
//
// Because the channel interleave is a fixed stride, each transaction's
// bursts form one contiguous local run per channel; on an unobserved,
// fault-free system those runs are computed arithmetically and handed to
// channel.AccessRun in one call instead of once per 16-byte burst. With
// probes or faults attached (or NoCoalesce set) dispatch stays per-burst,
// so event streams and fault decision draws are untouched. Either way the
// per-channel op order — and therefore every reported number — is
// bit-identical.
func (s *System) Run(src Source) (Result, error) {
	if c := activeRunCounter.Load(); c != nil {
		c.Inc()
	}
	res := Result{PerChannel: make([]stats.Channel, len(s.chans)), FailedChannel: -1}
	burst := s.cfg.Geometry.BurstBytes()
	var last int64

	// Coalescing additionally requires the scheduling policy to have
	// declared its command stream safe for the arithmetic fast path; any
	// non-baseline policy conservatively dispatches per burst, which also
	// preserves per-burst stream attribution for partitioning policies.
	coalesce := !s.cfg.NoCoalesce && s.inj == nil &&
		(!s.observed() || s.cfg.SynthCoalescedEvents) &&
		len(s.chans) > 0 && s.chans[0].Controller().CoalesceSafe()

	// Pending dropout from the fault plan (fires at most once per System).
	dropPending := s.inj != nil && !s.dropped && s.inj.Plan().DropAtCycle > 0

	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		if req.Bytes <= 0 {
			return Result{}, fmt.Errorf("memsys: transaction with %d bytes", req.Bytes)
		}
		if req.Addr < 0 {
			return Result{}, fmt.Errorf("memsys: negative address %d", req.Addr)
		}
		res.Transactions++
		if req.Write {
			res.BytesWritten += req.Bytes
		} else {
			res.BytesRead += req.Bytes
		}
		if req.Arrival > s.dispArrival {
			s.dispArrival = req.Arrival
		}
		if dropPending && s.dispatchClock() >= s.inj.Plan().DropAtCycle {
			dropPending = false
			s.failChannel(s.inj.Plan().DropChannel)
		}
		arrival := s.onchip.Deliver(req.Arrival)
		// Split into whole bursts covering [Addr, Addr+Bytes).
		start := req.Addr - req.Addr%burst
		end := req.Addr + req.Bytes
		bursts := (end - start + burst - 1) / burst
		if coalesce {
			if done := s.dispatchRuns(req.Write, start, bursts, arrival); done > last {
				last = done
			}
		} else {
			for a := start; a < end; a += burst {
				ch, local := s.route(a)
				if done := s.chans[ch].AccessStream(req.Write, local, req.Stream, arrival); done > last {
					last = done
				}
			}
		}
		s.dispBus += bursts * s.speed.BurstCycles
		res.Bursts += bursts
		res.BusBytes += bursts * burst
	}
	for i, ch := range s.chans {
		// Drain any posted writes so the makespan covers all traffic.
		if done := ch.Flush(); done > last {
			last = done
		}
		res.PerChannel[i] = ch.Stats()
	}
	res.Cycles = s.onchip.Complete(last)
	if res.Bursts == 0 {
		res.Cycles = 0
	}
	res.Time = s.speed.CycleDuration(res.Cycles)
	if s.dropped {
		res.FailedChannel = s.deadChannel
		res.DropClock = s.dropClock
	}
	return res, nil
}

// observed reports whether any channel has a probe sink attached; coalesced
// dispatch is bypassed then so per-burst event streams stay identical.
func (s *System) observed() bool {
	for _, ch := range s.chans {
		if ch.Observed() {
			return true
		}
	}
	return false
}

// dispatchRuns splits the burst-aligned global range [start, start+bursts*B)
// into its per-channel contiguous local runs, dispatches each as one
// AccessRun call, and returns the latest completion cycle.
// The stride interleave sends global chunk k to channel k mod M, and a
// channel's consecutive chunks are adjacent in its local address space, so
// each channel's share of a transaction is exactly one run: arithmetic over
// chunk indices replaces the per-burst route() loop.
func (s *System) dispatchRuns(write bool, start, bursts, arrival int64) int64 {
	var last int64
	burst := s.cfg.Geometry.BurstBytes()
	ilv := s.interleave
	g := ilv.Granularity() / burst // bursts per interleave chunk
	m := int64(ilv.Channels())
	s0 := start / burst // global burst index of the first burst
	k0 := s0 / g        // first and last chunk index touched
	k1 := (s0 + bursts - 1) / g
	for c := int64(0); c < m; c++ {
		kc := k0 + (c-k0%m+m)%m // channel c's first chunk in range
		if kc > k1 {
			continue
		}
		nc := (k1-kc)/m + 1 // its chunk count
		cnt := nc * g
		first := kc * g
		if first < s0 { // head chunk entered mid-way (only possible at k0)
			cnt -= s0 - first
			first = s0
		}
		if kc+(nc-1)*m == k1 { // tail chunk may end mid-way
			if chunkEnd := (k1 + 1) * g; chunkEnd > s0+bursts {
				cnt -= chunkEnd - (s0 + bursts)
			}
		}
		if e := s.chans[c].AccessRun(write, ilv.Local(first*burst), int(cnt), arrival); e > last {
			last = e
		}
	}
	return last
}

// dispatchClock returns the deterministic dispatch-time lower bound the
// dropout trigger is evaluated against (see the System field comment).
func (s *System) dispatchClock() int64 {
	live := int64(len(s.chans))
	if s.dropped {
		live = int64(len(s.survivors))
	}
	if c := s.dispBus / live; c > s.dispArrival {
		return c
	}
	return s.dispArrival
}

// route maps a system byte address to its (physical channel, local address),
// honoring the post-dropout Table II remap over the survivors.
func (s *System) route(addr int64) (int, int64) {
	if !s.dropped {
		return s.interleave.Channel(addr), s.interleave.Local(addr)
	}
	return s.survivors[s.liveIlv.Channel(addr)], s.liveIlv.Local(addr)
}

// failChannel drops the channel permanently: subsequent traffic is
// re-interleaved over the M-1 survivors at the original granularity, and a
// channel-fail event is emitted on every observed channel so the failure
// point is visible on each trace track.
func (s *System) failChannel(dead int) {
	s.dropClock = s.dispatchClock() // before dropped flips: clock over M live channels
	s.dropped = true
	s.deadChannel = dead
	s.survivors = s.survivors[:0]
	for i := range s.chans {
		if i != dead {
			s.survivors = append(s.survivors, i)
		}
	}
	// len(survivors) >= 1 is guaranteed by fault.Plan.Validate.
	ilv, err := mapping.NewChannelInterleave(len(s.survivors), s.interleave.Granularity())
	if err != nil {
		// Unreachable: the original interleave validated the granularity.
		panic(fmt.Sprintf("memsys: survivor interleave: %v", err))
	}
	s.liveIlv = ilv
	for _, ch := range s.chans {
		if ch.Observed() {
			ch.Controller().EmitEvent(probe.Event{Kind: probe.KindChannelFail, Bank: -1,
				At: s.dropClock, End: s.dropClock, Aux: int64(dead)})
		}
	}
}

// Injector returns the instantiated fault injector (nil when the
// configuration carries no enabled fault plan).
func (s *System) Injector() *fault.Injector { return s.inj }

// Reset restores every channel to its initial state, revives a dropped
// channel, and rewinds the fault decision streams so a reset system replays
// the identical fault sequence.
func (s *System) Reset() {
	for _, ch := range s.chans {
		ch.Reset()
	}
	s.dropped = false
	s.deadChannel = -1
	s.dropClock = 0
	s.survivors = nil
	s.liveIlv = mapping.ChannelInterleave{}
	s.dispArrival = 0
	s.dispBus = 0
	if s.inj != nil {
		s.inj.Reset()
	}
}
