// Package probe is the simulator's observability layer: a low-overhead
// event stream emitted by the per-channel controllers (DRAM commands, row
// outcomes, power-state residency, request enqueue/complete) and a set of
// sinks that turn it into windowed time-series metrics, Chrome/Perfetto
// trace files, and machine-readable run manifests.
//
// The hot path is guarded by a nil check in the controller: a simulation
// without a sink attached pays only an untaken branch per would-be event
// (see BenchmarkProbeDisabledOverhead at the repository root).
//
// Contract: within one channel, event At timestamps are monotonically
// non-decreasing in emission order — the emitter clamps At forward when an
// event's true start lags an already-emitted timestamp. End is never
// clamped: it always carries the event's exact schedule, so End < At marks
// an event whose At was clamped (e.g. a refresh served inside an idle gap,
// emitted after the enqueue of the request that ended the gap). Sinks that
// need a display duration must guard against the negative span; sinks that
// need exact command timing should derive it from End (see internal/check).
// Channels are independent: each channel emits into its own sink, in its
// own dispatch order, from the goroutine that calls memsys.System.Run. A
// sink shared across Systems that run concurrently must synchronize
// internally.
package probe

import "fmt"

// Kind classifies one event.
type Kind uint8

const (
	// KindActivate is an ACT command opening Row in Bank; End is the cycle
	// the row is usable (At + tRCD).
	KindActivate Kind = iota
	// KindPrecharge is a PRE command closing Bank (Bank < 0: precharge
	// all); End is At + tRP.
	KindPrecharge
	// KindRead is a RD command on Bank/Row; End is the cycle the last data
	// beat leaves the bus and Aux is the data-bus cycles of the burst.
	KindRead
	// KindWrite is a WR command; fields as for KindRead.
	KindWrite
	// KindRefresh is one auto-refresh (Bank < 0, all banks); End is the
	// cycle the banks are usable again (At + tRFC).
	KindRefresh
	// KindRowHit marks an access that found its row open.
	KindRowHit
	// KindRowMiss marks an access whose bank was closed.
	KindRowMiss
	// KindRowConflict marks an access whose bank held another row.
	KindRowConflict
	// KindPowerDown is one completed power-down residency: the cluster was
	// powered down for Aux cycles in [End-Aux, End), exiting at End.
	// FlagPrechargedPD marks the cheaper all-banks-closed state.
	KindPowerDown
	// KindSelfRefresh is one completed self-refresh residency of Aux
	// cycles in [End-Aux, End).
	KindSelfRefresh
	// KindEnqueue marks a request entering the channel; Depth is the
	// pending-queue depth including it.
	KindEnqueue
	// KindComplete marks a request leaving the channel at At; Depth is
	// the remaining pending-queue depth and Aux the observed latency in
	// cycles (completion minus arrival of the triggering request; under a
	// reorder window the completing request may differ from the arrival).
	KindComplete
	// KindChannelFail marks a channel dropout (see internal/fault): Aux is
	// the failed channel index. The subsystem emits it on every observed
	// channel so each trace track shows the failure point.
	KindChannelFail
	// KindThermalDerate marks the controller switching to the derated
	// (shortened) refresh interval; Aux is the new interval in cycles.
	KindThermalDerate
	// KindReadRetry marks one ECC read-retry re-issued after a transient
	// read error; Aux is the 1-based retry attempt.
	KindReadRetry
	// KindStall marks an injected controller stall of Aux cycles.
	KindStall
	// KindDegrade marks the degradation engine stepping the workload down;
	// Aux is the new ladder level.
	KindDegrade
	// KindRecover marks the first frame meeting its deadline again after a
	// miss; Aux is the frame index.
	KindRecover

	numKinds
)

// String names the kind the way trace viewers render it.
func (k Kind) String() string {
	switch k {
	case KindActivate:
		return "ACT"
	case KindPrecharge:
		return "PRE"
	case KindRead:
		return "RD"
	case KindWrite:
		return "WR"
	case KindRefresh:
		return "REF"
	case KindRowHit:
		return "row-hit"
	case KindRowMiss:
		return "row-miss"
	case KindRowConflict:
		return "row-conflict"
	case KindPowerDown:
		return "power-down"
	case KindSelfRefresh:
		return "self-refresh"
	case KindEnqueue:
		return "enqueue"
	case KindComplete:
		return "complete"
	case KindChannelFail:
		return "channel-fail"
	case KindThermalDerate:
		return "thermal-derate"
	case KindReadRetry:
		return "read-retry"
	case KindStall:
		return "stall"
	case KindDegrade:
		return "degrade"
	case KindRecover:
		return "recover"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event flags.
const (
	// FlagPrechargedPD marks a KindPowerDown residency spent with all
	// banks closed (precharge power-down).
	FlagPrechargedPD uint8 = 1 << iota
)

// Event is one typed observation from a channel. All cycle values are DRAM
// clock cycles from the start of the simulation.
type Event struct {
	Kind  Kind
	Flags uint8
	// Channel is the emitting channel index (tagged by the controller).
	Channel int32
	// Bank and Row locate command events; Bank < 0 means all banks.
	Bank int32
	Row  int32
	// Depth is the pending-queue depth for enqueue/complete events.
	Depth int32
	// At is the cycle the event begins (clamped forward to keep the
	// per-channel stream monotonic); End the cycle it ends. End is exact
	// and may be below a clamped At — see the package contract.
	At  int64
	End int64
	// Aux is a kind-specific payload: data-bus cycles (read/write), idle
	// cycles (power-down/self-refresh), latency (complete).
	Aux int64
}

// Sink receives events. Emit must be cheap; heavy work belongs in a
// post-run pass over collected state.
type Sink interface {
	Emit(ev Event)
}

// Func adapts a function to a Sink.
type Func func(ev Event)

// Emit implements Sink.
func (f Func) Emit(ev Event) { f(ev) }

// Multi fans one event out to several sinks, skipping nils. It returns nil
// when no non-nil sink remains, so the controller's disabled fast path is
// preserved, and returns a lone sink unwrapped.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return multiSink(live)
	}
}

type multiSink []Sink

// Emit implements Sink.
func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Recorder is a Sink that appends every event to a slice — handy in tests
// and for small post-processed runs.
type Recorder struct {
	Events []Event
}

// Emit implements Sink.
func (r *Recorder) Emit(ev Event) { r.Events = append(r.Events, ev) }

// Count is a Sink that only counts events per kind; its Emit cost is one
// array increment, making it the reference "enabled but almost free" sink
// for overhead benchmarks.
type Count struct {
	ByKind [numKinds]int64
}

// Emit implements Sink.
func (c *Count) Emit(ev Event) {
	if int(ev.Kind) < len(c.ByKind) {
		c.ByKind[ev.Kind]++
	}
}

// Total returns the number of events seen across all kinds.
func (c *Count) Total() int64 {
	var n int64
	for _, v := range c.ByKind {
		n += v
	}
	return n
}
