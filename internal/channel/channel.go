// Package channel composes the paper's per-channel entity: a memory
// controller, the DRAM interconnect and a bank cluster together form the
// "channel model" from which delay and power figures are attained
// (paper section III).
package channel

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/interconnect"
	"repro/internal/mapping"
	"repro/internal/probe"
	"repro/internal/stats"
)

// Config parameterizes one channel.
type Config struct {
	Controller controller.Config
	// DRAMLink is the controller-to-bank-cluster interconnect.
	DRAMLink interconnect.Link
	// QueueDepth > 0 inserts an FR-FCFS reorder window of that many
	// bursts in front of the controller (extension; zero keeps the
	// paper's in-order scheduling).
	QueueDepth int
	// Faults, when non-nil, is this channel's fault decision stream: the
	// channel re-issues reads the stream marks as transient ECC errors,
	// with bounded exponential backoff (see internal/fault). The same
	// injector should be passed to Controller.Faults so stall jitter and
	// the thermal derate share the channel's decision stream.
	Faults *fault.ChannelInjector
}

// Channel is one memory channel: requests enter through the DRAM
// interconnect, are scheduled by the controller, and read data returns
// through the interconnect.
type Channel struct {
	ctl   *controller.Controller
	queue *controller.ReorderQueue
	link  interconnect.Link
	inj   *fault.ChannelInjector // nil = fault-free (the fast path)
}

// New builds a channel.
func New(cfg Config) (*Channel, error) {
	if err := cfg.DRAMLink.Validate(); err != nil {
		return nil, err
	}
	ctl, err := controller.New(cfg.Controller)
	if err != nil {
		return nil, err
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("channel: negative queue depth %d", cfg.QueueDepth)
	}
	depth := cfg.QueueDepth
	if min := ctl.MinQueueDepth(); depth < min {
		// A reordering policy (FR-FCFS) needs a window to reorder over;
		// open one at the policy's default when the configuration sets
		// none.
		depth = min
	}
	return &Channel{
		ctl:   ctl,
		queue: controller.NewReorderQueue(ctl, depth),
		link:  cfg.DRAMLink,
		inj:   cfg.Faults,
	}, nil
}

// Access performs one burst at the channel-local byte address. arrival is
// when the request reaches the channel; the returned cycle is when the
// requester observes completion (read data returned, or write data
// accepted by the cluster). The burst is attributed to stream 0; use
// AccessStream when the requester's stream identity matters (bank
// partitioning).
func (ch *Channel) Access(write bool, local int64, arrival int64) int64 {
	return ch.AccessStream(write, local, 0, arrival)
}

// AccessStream performs one burst on behalf of the identified client
// stream. The controller's policy may remap the decoded bank by stream
// (bank partitioning) before the request enters the scheduling window;
// for every other policy the remap is the identity and the call behaves
// exactly like Access.
func (ch *Channel) AccessStream(write bool, local int64, stream int, arrival int64) int64 {
	if arrival < 0 {
		arrival = 0
	}
	loc := ch.ctl.MapStream(stream, ch.decode(local))
	end := ch.queue.Access(write, loc, ch.link.Deliver(arrival))
	if write {
		return end
	}
	if ch.inj != nil {
		// Transient read error: the ECC detects a flipped bit and the
		// channel re-reads the burst after a bounded, doubling backoff.
		// Retry traffic runs through the normal scheduling path, so it
		// costs real bus cycles and appears in the stats and the probe
		// stream like any other read.
		if retries, _ := ch.inj.ReadOutcome(); retries > 0 {
			for attempt := 0; attempt < retries; attempt++ {
				at := end + ch.inj.RetryBackoff(attempt)
				if ch.ctl.HasProbe() {
					ch.ctl.EmitEvent(probe.Event{Kind: probe.KindReadRetry, Bank: -1,
						At: at, End: at, Aux: int64(attempt + 1)})
				}
				end = ch.queue.Access(false, loc, at)
			}
		}
	}
	return ch.link.Complete(end)
}

// AccessRun performs a run of sequential same-direction bursts starting at
// the channel-local byte address, all with the same arrival — the per-channel
// shape of one interleaved master transaction. It returns the latest
// per-burst completion cycle, bit-identical to calling Access once per burst
// in address order.
//
// With an in-order, unobserved, fault-free channel under a coalesce-safe
// policy the run is handed to the controller's coalesced fast path (see
// controller.AccessRun); a reorder window, an attached probe, a fault
// stream, or a policy that has not declared coalesce-safety falls back to
// the per-burst path so event streams, fault decisions and policy state
// stay identical. The per-burst fallback attributes every burst to
// stream 0; memsys only coalesces under coalesce-safe policies, whose
// stream remap is the identity, and dispatches per burst otherwise.
func (ch *Channel) AccessRun(write bool, local int64, bursts int, arrival int64) int64 {
	if bursts <= 1 {
		if bursts < 1 {
			return 0
		}
		return ch.Access(write, local, arrival)
	}
	if ch.inj != nil || ch.queue.Depth() > 0 || !ch.ctl.CoalesceSafe() ||
		(ch.ctl.HasProbe() && !ch.ctl.SynthCoalesced()) {
		burstBytes := ch.ctl.Config().Speed.Geometry.BurstBytes()
		var end int64
		for i := 0; i < bursts; i++ {
			if e := ch.Access(write, local, arrival); e > end {
				end = e
			}
			local += burstBytes
		}
		return end
	}
	if arrival < 0 {
		arrival = 0
	}
	end := ch.ctl.AccessRun(write, local, bursts, ch.link.Deliver(arrival))
	if write {
		return end
	}
	return ch.link.Complete(end)
}

// Flush drains the reorder window and any posted writes, returning the
// channel makespan at the DRAM bus.
func (ch *Channel) Flush() int64 { return ch.queue.Flush() }

// Stats returns the controller's accumulated counters.
func (ch *Channel) Stats() stats.Channel { return ch.ctl.Stats() }

// Latency returns the controller's latency histogram.
func (ch *Channel) Latency() *stats.Histogram { return ch.ctl.Latency() }

// BusyCycles returns the channel makespan at the DRAM bus.
func (ch *Channel) BusyCycles() int64 { return ch.ctl.BusyCycles() }

// Controller exposes the underlying controller (for configuration queries).
func (ch *Channel) Controller() *controller.Controller { return ch.ctl }

// Observed reports whether a probe sink is attached to this channel's
// controller (see internal/probe); the event stream covers the channel's
// full request path: enqueue, DRAM commands, power states, completion.
func (ch *Channel) Observed() bool { return ch.ctl.HasProbe() }

// Reset restores the channel to its initial state, rewinding the fault
// decision stream (when one is attached) along with the controller and the
// reorder window, so a reset channel replays the identical run.
func (ch *Channel) Reset() {
	ch.ctl.Reset()
	ch.queue = controller.NewReorderQueue(ch.ctl, ch.queueDepth())
	if ch.inj != nil {
		ch.inj.Reset()
	}
}

func (ch *Channel) queueDepth() int {
	// The queue's depth is immutable after construction; re-derive it
	// from the existing wrapper (0 when reordering is off).
	return ch.queue.Depth()
}

// decode maps a channel-local byte address to its DRAM coordinate using the
// controller's configured multiplexing.
func (ch *Channel) decode(local int64) mapping.Location {
	return ch.ctl.Decode(local)
}
