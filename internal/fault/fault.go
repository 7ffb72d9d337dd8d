// Package fault injects deterministic, seeded hardware faults into the
// multi-channel memory simulation: channel dropout at a planned cycle,
// thermal clock derating that multiplies the refresh rate, transient read
// errors that trigger ECC read-retry traffic, and controller stall jitter.
//
// The design mirrors the probe layer's cost model: every hook in the
// controller, channel and subsystem hot paths is guarded by a nil check,
// so a simulation without a fault plan pays only an untaken branch.
//
// Determinism contract: all pseudo-random decisions are drawn from
// per-channel splitmix64 streams derived from (Plan.Seed, channel index),
// and each channel's decisions depend only on that channel's request order,
// so a seeded faulty run is bit-identical from run to run — the same
// guarantee the fault-free simulator makes.
package fault

import "fmt"

// Default knob values (applied when the Plan leaves them zero).
const (
	// DefaultRefreshDivisor divides the refresh interval after a thermal
	// derate: the DDR "double refresh rate above 85 C" rule.
	DefaultRefreshDivisor = 2
	// DefaultRetryLimit bounds the ECC read-retries per failed burst.
	DefaultRetryLimit = 3
	// DefaultRetryBackoff is the backoff before the first retry, in DRAM
	// cycles; it doubles on every further attempt.
	DefaultRetryBackoff = 8
	// DefaultStallMaxCycles bounds one controller stall.
	DefaultStallMaxCycles = 32
)

// Plan is a deterministic, seeded fault plan for one run. The zero value
// injects nothing. All cycle values are DRAM clock cycles in the simulated
// clock domain (when a run samples a fraction of each frame, plan cycles
// are compared against the sampled timeline).
type Plan struct {
	// Seed selects the pseudo-random decision streams. Two runs with the
	// same plan produce bit-identical fault sequences and QoS reports.
	Seed uint64

	// DropChannel fails permanently once the subsystem's dispatch clock
	// reaches DropAtCycle (> 0 enables the dropout): the channel stops
	// accepting traffic and subsequent accesses are re-interleaved over
	// the M-1 surviving channels (Table II remap).
	DropChannel int
	DropAtCycle int64

	// DerateAtCycle > 0 models a thermal event at that cycle: every
	// channel's refresh interval is divided by RefreshDivisor (default 2,
	// the "hot device" refresh-rate doubling), stealing bandwidth.
	DerateAtCycle  int64
	RefreshDivisor int

	// ReadErrorRate is the per-read-burst probability of a transient bit
	// error the ECC detects; each error triggers read-retry traffic with
	// bounded exponential backoff (RetryLimit attempts starting at
	// RetryBackoff cycles).
	ReadErrorRate float64
	RetryLimit    int
	RetryBackoff  int64

	// StallRate is the per-request probability of a controller stall of
	// 1..StallMaxCycles extra cycles before the request is attended
	// (arbitration jitter, ZQ calibration, firmware hiccups).
	StallRate      float64
	StallMaxCycles int64
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.DropAtCycle > 0 || p.DerateAtCycle > 0 || p.ReadErrorRate > 0 || p.StallRate > 0
}

// refreshDivisor returns the effective thermal refresh divisor.
func (p Plan) refreshDivisor() int64 {
	if p.RefreshDivisor <= 0 {
		return DefaultRefreshDivisor
	}
	return int64(p.RefreshDivisor)
}

// retryLimit returns the effective ECC retry bound.
func (p Plan) retryLimit() int {
	if p.RetryLimit <= 0 {
		return DefaultRetryLimit
	}
	return p.RetryLimit
}

// retryBackoff returns the effective base backoff in cycles.
func (p Plan) retryBackoff() int64 {
	if p.RetryBackoff <= 0 {
		return DefaultRetryBackoff
	}
	return p.RetryBackoff
}

// stallMax returns the effective stall bound in cycles.
func (p Plan) stallMax() int64 {
	if p.StallMaxCycles <= 0 {
		return DefaultStallMaxCycles
	}
	return p.StallMaxCycles
}

// Validate checks the plan against the channel count it will run on.
func (p Plan) Validate(channels int) error {
	if p.DropAtCycle < 0 {
		return fmt.Errorf("fault: negative dropout cycle %d", p.DropAtCycle)
	}
	if p.DropAtCycle > 0 {
		if p.DropChannel < 0 || p.DropChannel >= channels {
			return fmt.Errorf("fault: dropout channel %d outside [0,%d)", p.DropChannel, channels)
		}
		if channels < 2 {
			return fmt.Errorf("fault: cannot drop the only channel (need >= 2 channels to degrade)")
		}
	}
	if p.DerateAtCycle < 0 {
		return fmt.Errorf("fault: negative derate cycle %d", p.DerateAtCycle)
	}
	if p.RefreshDivisor < 0 {
		return fmt.Errorf("fault: negative refresh divisor %d", p.RefreshDivisor)
	}
	if p.ReadErrorRate < 0 || p.ReadErrorRate > 1 {
		return fmt.Errorf("fault: read error rate %v outside [0,1]", p.ReadErrorRate)
	}
	if p.RetryLimit < 0 {
		return fmt.Errorf("fault: negative retry limit %d", p.RetryLimit)
	}
	if p.RetryBackoff < 0 {
		return fmt.Errorf("fault: negative retry backoff %d", p.RetryBackoff)
	}
	if p.StallRate < 0 || p.StallRate > 1 {
		return fmt.Errorf("fault: stall rate %v outside [0,1]", p.StallRate)
	}
	if p.StallMaxCycles < 0 {
		return fmt.Errorf("fault: negative stall bound %d", p.StallMaxCycles)
	}
	return nil
}

// Counters accumulates the fault activity of one channel (or, summed, of a
// whole run). All counts are exact, not sampled.
type Counters struct {
	// ReadErrors counts transient read errors injected; Retries the ECC
	// re-reads they triggered; RetriesExhausted the bursts whose retry
	// budget ran out (recovered by stronger upstream correction, but
	// counted against QoS).
	ReadErrors       int64
	Retries          int64
	RetriesExhausted int64
	// Stalls counts controller stalls and StallCycles their total cost.
	Stalls      int64
	StallCycles int64
	// Derates counts thermal derate transitions (at most one per channel).
	Derates int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.ReadErrors += o.ReadErrors
	c.Retries += o.Retries
	c.RetriesExhausted += o.RetriesExhausted
	c.Stalls += o.Stalls
	c.StallCycles += o.StallCycles
	c.Derates += o.Derates
}

// Injector instantiates a plan over a channel count: one deterministic
// per-channel decision stream each, plus the shared dropout bookkeeping the
// subsystem consults.
type Injector struct {
	plan  Plan
	chans []*ChannelInjector
}

// NewInjector validates the plan and builds the per-channel injectors.
func NewInjector(plan Plan, channels int) (*Injector, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("fault: injector over %d channels", channels)
	}
	if err := plan.Validate(channels); err != nil {
		return nil, err
	}
	in := &Injector{plan: plan, chans: make([]*ChannelInjector, channels)}
	for i := range in.chans {
		in.chans[i] = newChannelInjector(&in.plan, i)
	}
	return in, nil
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Channel returns channel ch's injector.
func (in *Injector) Channel(ch int) *ChannelInjector { return in.chans[ch] }

// Counters sums the per-channel fault counters in channel order.
func (in *Injector) Counters() Counters {
	var c Counters
	for _, ci := range in.chans {
		c.Add(ci.cnt)
	}
	return c
}

// Reset restores every channel's decision stream and counters to their
// initial state, so a reset subsystem replays the identical fault sequence.
func (in *Injector) Reset() {
	for _, ci := range in.chans {
		ci.Reset()
	}
}

// ChannelInjector is one channel's fault decision stream. It is driven only
// from the memsys dispatch loop that owns the channel, so it needs no
// locking.
type ChannelInjector struct {
	plan  *Plan
	seed  uint64
	state uint64
	cnt   Counters
}

// newChannelInjector derives channel ch's stream from the plan seed.
func newChannelInjector(plan *Plan, ch int) *ChannelInjector {
	// Offset by a fixed odd constant per channel so sibling streams are
	// uncorrelated even for adjacent seeds.
	seed := plan.Seed ^ (uint64(ch+1) * 0x9e3779b97f4a7c15)
	return &ChannelInjector{plan: plan, seed: seed, state: seed}
}

// next advances the splitmix64 stream.
func (ci *ChannelInjector) next() uint64 {
	ci.state += 0x9e3779b97f4a7c15
	z := ci.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance draws one uniform [0,1) variate and compares it to rate. A zero
// rate draws nothing, keeping disabled faults free and the stream stable.
func (ci *ChannelInjector) chance(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(ci.next()>>11)*(1.0/(1<<53)) < rate
}

// ReadOutcome decides one read burst's fate: retries is the number of ECC
// re-reads the channel must issue (0 = clean read), exhausted whether the
// retry budget ran out. Counters are updated as a side effect.
func (ci *ChannelInjector) ReadOutcome() (retries int, exhausted bool) {
	if !ci.chance(ci.plan.ReadErrorRate) {
		return 0, false
	}
	ci.cnt.ReadErrors++
	limit := ci.plan.retryLimit()
	for retries < limit {
		retries++
		ci.cnt.Retries++
		if !ci.chance(ci.plan.ReadErrorRate) {
			return retries, false // retry read back clean
		}
	}
	ci.cnt.RetriesExhausted++
	return retries, true
}

// RetryBackoff returns the backoff before retry attempt (0-based), doubling
// per attempt from the plan's base.
func (ci *ChannelInjector) RetryBackoff(attempt int) int64 {
	b := ci.plan.retryBackoff()
	for i := 0; i < attempt && b < 1<<20; i++ {
		b <<= 1
	}
	return b
}

// Stall decides one request's controller stall, returning the extra cycles
// (0 = none).
func (ci *ChannelInjector) Stall() int64 {
	if !ci.chance(ci.plan.StallRate) {
		return 0
	}
	n := 1 + int64(ci.next()%uint64(ci.plan.stallMax()))
	ci.cnt.Stalls++
	ci.cnt.StallCycles += n
	return n
}

// DerateAtCycle returns the thermal derate trigger cycle (0 = disabled).
func (ci *ChannelInjector) DerateAtCycle() int64 { return ci.plan.DerateAtCycle }

// RefreshDivisor returns the post-derate refresh interval divisor.
func (ci *ChannelInjector) RefreshDivisor() int64 { return ci.plan.refreshDivisor() }

// CountDerate records that this channel's controller applied the derate.
func (ci *ChannelInjector) CountDerate() { ci.cnt.Derates++ }

// Counters returns this channel's accumulated fault activity.
func (ci *ChannelInjector) Counters() Counters { return ci.cnt }

// Reset restores the decision stream and counters to their initial state.
func (ci *ChannelInjector) Reset() {
	ci.state = ci.seed
	ci.cnt = Counters{}
}
