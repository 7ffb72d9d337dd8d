// Package check is a protocol invariant checker for the simulated
// mobile-DDR channel: it consumes the probe event stream (internal/probe)
// and verifies, command by command, that the controller never violates the
// theoretical device's constraints — per-bank spacing (tRCD/tRP/tRAS/tRC),
// cross-bank spacing (tRRD and the tFAW four-activate window), the shared
// data bus (no burst collisions, read/write turnaround bubbles, tWTR write
// recovery), refresh-interval bounds including the thermal derate, and
// power-down/self-refresh entry and exit legality (tXP/tXSR).
//
// The checker is an independent re-derivation of the rules from the event
// stream alone: it shares no state with the controller, so a bookkeeping
// bug on either side surfaces as a violation. It is the same validation
// idea DRAMsim3 and Ramulator ship as command-trace checkers.
//
// Command issue times are reconstructed from event End cycles (ACT ends
// tRCD after issue, PRE tRP, REF tRFC, RD CL+burst, WR CWL+burst) because
// the probe contract clamps At forward to keep per-channel streams
// monotonic — End carries the exact schedule.
package check

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/probe"
)

// Options parameterizes a checker Set.
type Options struct {
	// Speed is the resolved device timing the observed controllers run at.
	Speed dram.Speed
	// Policy mirrors the controllers' page policy; ClosedPage makes the
	// checker model the auto-precharge that follows every access.
	Policy controller.PagePolicy
	// RefreshPostpone mirrors controller.Config.RefreshPostpone and widens
	// the refresh spacing bound accordingly.
	RefreshPostpone int
	// RefreshDisabled disables the refresh-interval rule (the commands
	// themselves are still checked if any appear).
	RefreshDisabled bool
	// MaxRefreshInterval overrides the refresh spacing bound in cycles.
	// Zero derives (RefreshPostpone+9)*tREFI — the JEDEC allowance of
	// eight postponed refreshes plus the interval itself, re-derived
	// against the derated interval after a KindThermalDerate event.
	MaxRefreshInterval int64
	// MaxViolations caps recorded violations per channel (further ones are
	// counted but dropped). Zero means 64.
	MaxViolations int
}

// Violation is one observed protocol breach.
type Violation struct {
	Channel int
	Rule    string // e.g. "tRFC", "bus-turnaround", "refresh-late"
	At      int64  // reconstructed issue/start cycle of the offending event
	Bank    int
	Msg     string
}

// String formats the violation for logs and test failures.
func (v Violation) String() string {
	return fmt.Sprintf("ch%d @%d bank %d [%s]: %s", v.Channel, v.At, v.Bank, v.Rule, v.Msg)
}

// Set owns one Checker per observed channel. Construct with New, attach
// via Channel (compatible with memsys.Config.NewProbe), and read the
// outcome with Violations or Err after the run.
type Set struct {
	opt Options

	mu   sync.Mutex
	chks []*Checker
}

// New builds a checker set for one device configuration.
func New(opt Options) *Set {
	if opt.MaxViolations <= 0 {
		opt.MaxViolations = 64
	}
	return &Set{opt: opt}
}

// Channel returns channel i's checker as an event sink. Safe to call from
// memsys construction; each returned sink must only be driven from the
// goroutine running its System's Run (the same contract as any probe sink).
func (s *Set) Channel(i int) probe.Sink {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.chks) <= i {
		s.chks = append(s.chks, nil)
	}
	if s.chks[i] == nil {
		s.chks[i] = newChecker(s.opt, i)
	}
	return s.chks[i]
}

// Violations returns all recorded violations ordered by channel, then by
// occurrence.
func (s *Set) Violations() []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Violation
	for _, c := range s.chks {
		if c != nil {
			out = append(out, c.violations...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Channel < out[j].Channel })
	return out
}

// Dropped returns how many violations exceeded the per-channel cap and
// were not recorded.
func (s *Set) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, c := range s.chks {
		if c != nil {
			n += c.dropped
		}
	}
	return n
}

// Err returns nil when every observed stream was clean, else an error
// naming the first violation and the total count.
func (s *Set) Err() error {
	vs := s.Violations()
	if len(vs) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d protocol violation(s), first: %s", int64(len(vs))+s.Dropped(), vs[0])
}

// unset is the sentinel for "no such command seen yet"; far enough below
// zero that adding timing windows cannot wrap.
const unset = math.MinInt64 / 4

// bankTrack is the checker's independent model of one bank.
type bankTrack struct {
	open        bool
	row         int32
	rdwrReadyAt int64 // ACT issue + tRCD
	rasReadyAt  int64 // ACT issue + tRAS (PRE floor)
	wrRecoverAt int64 // write data end + tWR (PRE floor)
	rdRecoverAt int64 // RD issue + tRTP (PRE floor)
	preEndAt    int64 // precharge completion (+tRP): ACT/REF floor
	rcReadyAt   int64 // ACT issue + tRC: ACT floor
}

// Checker validates one channel's event stream. It implements probe.Sink.
type Checker struct {
	opt   Options
	ch    int
	banks []bankTrack

	lastCmdAt int64 // most recent command issue (strict bus serialization)

	// Cross-bank activate spacing.
	lastActAt  int64
	actRing    [4]int64
	actRingIdx int
	actCount   int64

	// Shared data bus.
	haveXfer      bool
	lastDataEnd   int64
	lastDataWrite bool
	lastWrDataEnd int64
	haveWrite     bool

	// Refresh bookkeeping.
	refi      int64
	refDoneAt int64 // previous REF completion (tRFC floor)
	lastRefAt int64
	haveRef   bool
	refBase   int64 // spacing base when no REF seen yet (first command, SR exit)
	haveBase  bool

	wakeFloor int64  // earliest command after a PD/SR exit (tXP/tXSR)
	wakeRule  string // which rule the floor carries

	violations []Violation
	dropped    int64
}

func newChecker(opt Options, ch int) *Checker {
	k := &Checker{
		opt:       opt,
		ch:        ch,
		banks:     make([]bankTrack, opt.Speed.Geometry.Banks),
		lastCmdAt: unset,
		lastActAt: unset,
		refDoneAt: unset,
		lastRefAt: unset,
		wakeFloor: unset,
		refi:      opt.Speed.REFI,
	}
	for i := range k.banks {
		k.banks[i] = bankTrack{
			rdwrReadyAt: unset, rasReadyAt: unset, wrRecoverAt: unset,
			rdRecoverAt: unset, preEndAt: unset, rcReadyAt: unset,
		}
	}
	return k
}

// Violations returns this channel's recorded violations in stream order.
func (k *Checker) Violations() []Violation { return k.violations }

func (k *Checker) fail(rule string, at int64, bank int, format string, args ...any) {
	if len(k.violations) >= k.opt.MaxViolations {
		k.dropped++
		return
	}
	k.violations = append(k.violations, Violation{
		Channel: k.ch, Rule: rule, At: at, Bank: bank, Msg: fmt.Sprintf(format, args...),
	})
}

// maxRefreshInterval is the spacing bound under the current (possibly
// derated) refresh interval.
func (k *Checker) maxRefreshInterval() int64 {
	if k.opt.MaxRefreshInterval > 0 {
		return k.opt.MaxRefreshInterval
	}
	return int64(k.opt.RefreshPostpone+9) * k.refi
}

// Emit implements probe.Sink.
func (k *Checker) Emit(ev probe.Event) {
	s := k.opt.Speed
	switch ev.Kind {
	case probe.KindActivate:
		k.command(ev, ev.End-s.RCD)
	case probe.KindPrecharge:
		k.command(ev, ev.End-s.RP)
	case probe.KindRefresh:
		k.command(ev, ev.End-s.RFC)
	case probe.KindRead:
		k.command(ev, ev.End-s.CL-ev.Aux)
	case probe.KindWrite:
		k.command(ev, ev.End-s.CWL-ev.Aux)
	case probe.KindPowerDown:
		k.residency(ev, "pd", ev.End+s.XP, "tXP")
		if ev.Flags&probe.FlagPrechargedPD != 0 && !k.allClosed() {
			k.fail("pd-flag", ev.End-ev.Aux, -1, "precharge power-down flagged with an open row")
		}
	case probe.KindSelfRefresh:
		if !k.allClosed() {
			k.fail("sr-open-bank", ev.End-ev.Aux, k.firstOpen(),
				"self-refresh entered with an open row (all banks must be precharged)")
		}
		k.residency(ev, "sr", ev.End+s.XSR, "tXSR")
		// Self-refresh maintains the cells internally: the periodic
		// refresh schedule restarts at exit.
		k.haveRef = false
		k.refBase = ev.End
		k.haveBase = true
	case probe.KindThermalDerate:
		if ev.Aux >= 1 {
			k.refi = ev.Aux
		}
		// Rebase spacing at the derate point: the interval in force
		// changes here, so a straddling interval is judged against
		// neither bound (the post-derate catch-up is checked from the
		// next refresh on).
		k.haveRef = false
		k.refBase = ev.At
		k.haveBase = true
	case probe.KindRowHit:
		if b := k.bank(ev.Bank); b != nil && (!b.open || b.row != ev.Row) {
			k.fail("row-outcome", ev.At, int(ev.Bank),
				"row-hit event for row %d but tracked bank state is open=%t row=%d",
				ev.Row, b.open, b.row)
		}
	}
}

// command validates one DRAM command with the reconstructed issue cycle.
func (k *Checker) command(ev probe.Event, issue int64) {
	if issue > ev.At {
		k.fail("event-shape", ev.At, int(ev.Bank),
			"%v ends at %d, before its own duration from At %d allows", ev.Kind, ev.End, ev.At)
		return
	}
	if !k.haveBase {
		k.refBase = issue
		k.haveBase = true
	}
	if issue <= k.lastCmdAt {
		k.fail("cmd-bus", issue, int(ev.Bank),
			"%v issued at %d, command bus already used at %d", ev.Kind, issue, k.lastCmdAt)
	}
	if issue < k.wakeFloor {
		k.fail(k.wakeRule, issue, int(ev.Bank),
			"%v issued at %d during the %s exit window ending %d", ev.Kind, issue, k.wakeRule, k.wakeFloor)
	}
	switch ev.Kind {
	case probe.KindActivate:
		k.activate(ev, issue)
	case probe.KindRead, probe.KindWrite:
		k.readWrite(ev, issue)
	case probe.KindPrecharge:
		k.precharge(ev, issue)
	case probe.KindRefresh:
		k.refresh(ev, issue)
	}
	if issue > k.lastCmdAt {
		k.lastCmdAt = issue
	}
}

func (k *Checker) activate(ev probe.Event, issue int64) {
	s := k.opt.Speed
	b := k.bank(ev.Bank)
	if b == nil {
		k.fail("bad-bank", issue, int(ev.Bank), "ACT on nonexistent bank")
		return
	}
	if b.open {
		k.fail("act-open-bank", issue, int(ev.Bank), "ACT while row %d is open", b.row)
	}
	if issue < b.preEndAt {
		k.fail("tRP", issue, int(ev.Bank), "ACT at %d inside precharge ending %d", issue, b.preEndAt)
	}
	if issue < b.rcReadyAt {
		k.fail("tRC", issue, int(ev.Bank), "ACT at %d, tRC window ends %d", issue, b.rcReadyAt)
	}
	if issue < k.refDoneAt {
		k.fail("tRFC", issue, int(ev.Bank), "ACT at %d inside refresh ending %d", issue, k.refDoneAt)
	}
	if k.lastActAt != unset && issue < k.lastActAt+s.RRD {
		k.fail("tRRD", issue, int(ev.Bank), "ACT at %d, %d after previous ACT (tRRD %d)",
			issue, issue-k.lastActAt, s.RRD)
	}
	if s.FAW > 0 && k.actCount >= 4 {
		if oldest := k.actRing[k.actRingIdx]; issue < oldest+s.FAW {
			k.fail("tFAW", issue, int(ev.Bank), "fifth ACT at %d, window of four since %d (tFAW %d)",
				issue, oldest, s.FAW)
		}
	}
	k.actRing[k.actRingIdx] = issue
	k.actRingIdx = (k.actRingIdx + 1) % 4
	k.actCount++
	k.lastActAt = issue
	b.open = true
	b.row = ev.Row
	b.rdwrReadyAt = issue + s.RCD
	b.rasReadyAt = issue + s.RAS
	b.rcReadyAt = issue + s.RC
}

func (k *Checker) readWrite(ev probe.Event, issue int64) {
	s := k.opt.Speed
	write := ev.Kind == probe.KindWrite
	b := k.bank(ev.Bank)
	if b == nil {
		k.fail("bad-bank", issue, int(ev.Bank), "%v on nonexistent bank", ev.Kind)
		return
	}
	if !b.open {
		k.fail("rw-closed-bank", issue, int(ev.Bank), "%v with the bank closed", ev.Kind)
	} else if b.row != ev.Row {
		k.fail("rw-wrong-row", issue, int(ev.Bank), "%v row %d but row %d is open", ev.Kind, ev.Row, b.row)
	}
	if issue < b.rdwrReadyAt {
		k.fail("tRCD", issue, int(ev.Bank), "%v at %d, tRCD satisfied at %d", ev.Kind, issue, b.rdwrReadyAt)
	}
	if !write && k.haveWrite && issue < k.lastWrDataEnd+s.WTR {
		k.fail("tWTR", issue, int(ev.Bank), "RD at %d, write data ended %d (tWTR %d)",
			issue, k.lastWrDataEnd, s.WTR)
	}
	// The data burst occupies [End-Aux, End) on the shared bus.
	start := ev.End - ev.Aux
	if k.haveXfer {
		if start < k.lastDataEnd {
			k.fail("bus-collision", issue, int(ev.Bank),
				"data starting %d overlaps previous burst ending %d", start, k.lastDataEnd)
		} else if k.lastDataWrite != write && start < k.lastDataEnd+1 {
			k.fail("bus-turnaround", issue, int(ev.Bank),
				"bus direction turnaround without a bubble at %d", start)
		}
	}
	if write {
		b.wrRecoverAt = ev.End + s.WR
		k.lastWrDataEnd = ev.End
		k.haveWrite = true
	} else {
		b.rdRecoverAt = issue + s.RTP
	}
	k.haveXfer = true
	k.lastDataEnd = ev.End
	k.lastDataWrite = write
	if k.opt.Policy == controller.ClosedPage {
		// Auto-precharge: the bank closes itself once restore and
		// recovery windows elapse (mirrors the controller's model).
		closeAt := max64(b.rasReadyAt, ev.End)
		closeAt = max64(closeAt, b.wrRecoverAt)
		closeAt = max64(closeAt, b.rdRecoverAt)
		b.open = false
		b.preEndAt = max64(b.preEndAt, closeAt+s.RP)
	}
}

func (k *Checker) precharge(ev probe.Event, issue int64) {
	s := k.opt.Speed
	if ev.Bank >= 0 {
		b := k.bank(ev.Bank)
		if b == nil {
			k.fail("bad-bank", issue, int(ev.Bank), "PRE on nonexistent bank")
			return
		}
		if !b.open {
			k.fail("pre-closed-bank", issue, int(ev.Bank), "PRE on an already closed bank")
		}
		k.prechargeBank(b, int(ev.Bank), issue)
		return
	}
	for i := range k.banks {
		if k.banks[i].open {
			k.prechargeBank(&k.banks[i], i, issue)
		} else {
			// Precharge-all restarts tRP on idle banks too.
			k.banks[i].preEndAt = max64(k.banks[i].preEndAt, issue+s.RP)
		}
	}
}

func (k *Checker) prechargeBank(b *bankTrack, bank int, issue int64) {
	s := k.opt.Speed
	if issue < b.rasReadyAt {
		k.fail("tRAS", issue, bank, "PRE at %d, row restore completes %d (tRAS)", issue, b.rasReadyAt)
	}
	if issue < b.wrRecoverAt {
		k.fail("tWR", issue, bank, "PRE at %d inside write recovery ending %d", issue, b.wrRecoverAt)
	}
	if issue < b.rdRecoverAt {
		k.fail("tRTP", issue, bank, "PRE at %d, read-to-precharge satisfied at %d", issue, b.rdRecoverAt)
	}
	b.open = false
	b.preEndAt = max64(b.preEndAt, issue+s.RP)
}

func (k *Checker) refresh(ev probe.Event, issue int64) {
	s := k.opt.Speed
	for i := range k.banks {
		b := &k.banks[i]
		if b.open {
			k.fail("ref-open-bank", issue, i, "REF with row %d open", b.row)
		}
		if issue < b.preEndAt {
			k.fail("tRP", issue, i, "REF at %d inside precharge ending %d", issue, b.preEndAt)
		}
	}
	if issue < k.refDoneAt {
		k.fail("tRFC", issue, -1, "REF at %d inside previous refresh ending %d (tRFC %d)",
			issue, k.refDoneAt, s.RFC)
	}
	if !k.opt.RefreshDisabled {
		base := k.refBase
		if k.haveRef {
			base = k.lastRefAt
		}
		if limit := k.maxRefreshInterval(); issue-base > limit {
			k.fail("refresh-late", issue, -1,
				"%d cycles since the previous refresh point %d (bound %d at tREFI %d, postpone %d)",
				issue-base, base, limit, k.refi, k.opt.RefreshPostpone)
		}
	}
	k.refDoneAt = issue + s.RFC
	k.lastRefAt = issue
	k.haveRef = true
}

// residency validates a power-state residency window [End-Aux, End) and
// arms the exit-penalty floor for the next command.
func (k *Checker) residency(ev probe.Event, what string, floor int64, rule string) {
	if ev.Aux > 0 {
		start := ev.End - ev.Aux
		if start <= k.lastCmdAt {
			k.fail(what+"-overlap", start, -1,
				"%s residency starts %d, at or before the last command %d", what, start, k.lastCmdAt)
		}
		if k.haveXfer && start < k.lastDataEnd {
			k.fail(what+"-overlap", start, -1,
				"%s residency starts %d inside a data burst ending %d", what, start, k.lastDataEnd)
		}
	}
	k.wakeFloor = floor
	k.wakeRule = rule
}

func (k *Checker) bank(b int32) *bankTrack {
	if b < 0 || int(b) >= len(k.banks) {
		return nil
	}
	return &k.banks[b]
}

func (k *Checker) allClosed() bool {
	for i := range k.banks {
		if k.banks[i].open {
			return false
		}
	}
	return true
}

func (k *Checker) firstOpen() int {
	for i := range k.banks {
		if k.banks[i].open {
			return i
		}
	}
	return -1
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
