// Chrome trace-event export: the Trace sink records the raw event stream
// and renders it as a Trace Event Format JSON document ("traceEvents"
// array of ph/ts/pid/tid records) that ui.perfetto.dev and
// chrome://tracing open directly. Each memory channel becomes a process
// track, each bank a thread track carrying command slices, with counter
// tracks for queue depth and power state.
package probe

import (
	"encoding/json"
	"fmt"
	"io"
)

// Trace collects events for Chrome trace-event export. Attach Channel(i)
// as channel i's sink; per-channel buffers are independent and need no
// locking.
type Trace struct {
	chans []*traceChan
}

// NewTrace builds a trace collector for the given channel count.
func NewTrace(channels int) (*Trace, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("probe: trace over %d channels", channels)
	}
	t := &Trace{chans: make([]*traceChan, channels)}
	for i := range t.chans {
		t.chans[i] = &traceChan{}
	}
	return t, nil
}

// Channel returns channel ch's sink.
func (t *Trace) Channel(ch int) Sink { return t.chans[ch] }

// Events returns the number of collected events across all channels.
func (t *Trace) Events() int {
	var n int
	for _, tc := range t.chans {
		n += len(tc.events)
	}
	return n
}

type traceChan struct {
	events []Event
}

// Emit implements Sink.
func (tc *traceChan) Emit(ev Event) { tc.events = append(tc.events, ev) }

// ChromeEvent is one record of the Chrome Trace Event Format. Ts and Dur
// are in the trace's time unit — this exporter writes DRAM cycles.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level JSON-object form of the format.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// Thread-track ids inside one channel process. Banks occupy tidBank0 and
// up, so the fixed tracks sort first in the viewer.
const (
	tidRequests = 0 // enqueue/complete instants and the queue counter
	tidPower    = 1 // refresh slices, power-state slices and counter
	tidBank0    = 2
)

// Build assembles the Chrome trace document from the collected events.
func (t *Trace) Build() ChromeTrace {
	doc := ChromeTrace{
		DisplayTimeUnit: "ns",
		OtherData:       map[string]any{"time_unit": "DRAM cycles", "channels": len(t.chans)},
	}
	for ch, tc := range t.chans {
		doc.TraceEvents = append(doc.TraceEvents,
			ChromeEvent{Name: "process_name", Ph: "M", Pid: ch, Tid: 0,
				Args: map[string]any{"name": fmt.Sprintf("channel %d", ch)}},
			ChromeEvent{Name: "thread_name", Ph: "M", Pid: ch, Tid: tidRequests,
				Args: map[string]any{"name": "requests"}},
			ChromeEvent{Name: "thread_name", Ph: "M", Pid: ch, Tid: tidPower,
				Args: map[string]any{"name": "refresh+power"}},
		)
		banksNamed := map[int32]bool{}
		for _, ev := range tc.events {
			if ev.Bank >= 0 && !banksNamed[ev.Bank] &&
				(ev.Kind == KindActivate || ev.Kind == KindPrecharge || ev.Kind == KindRead || ev.Kind == KindWrite) {
				banksNamed[ev.Bank] = true
				doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
					Name: "thread_name", Ph: "M", Pid: ch, Tid: tidBank0 + int(ev.Bank),
					Args: map[string]any{"name": fmt.Sprintf("bank %d", ev.Bank)}})
			}
			doc.TraceEvents = append(doc.TraceEvents, convert(ch, ev)...)
		}
	}
	return doc
}

// WriteJSON renders the trace document as JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.Build())
}

// dur clamps a slice duration to at least one cycle so it stays visible.
func dur(ev Event) int64 {
	if d := ev.End - ev.At; d > 0 {
		return d
	}
	return 1
}

// bankTid maps an event's bank to its thread track (all-bank commands
// render on the refresh+power track).
func bankTid(ev Event) int {
	if ev.Bank < 0 {
		return tidPower
	}
	return tidBank0 + int(ev.Bank)
}

// convert lowers one probe event to its Chrome trace records.
func convert(ch int, ev Event) []ChromeEvent {
	switch ev.Kind {
	case KindActivate:
		return []ChromeEvent{{Name: "ACT", Ph: "X", Ts: ev.At, Dur: dur(ev), Pid: ch, Tid: bankTid(ev),
			Args: map[string]any{"row": ev.Row}}}
	case KindPrecharge:
		return []ChromeEvent{{Name: "PRE", Ph: "X", Ts: ev.At, Dur: dur(ev), Pid: ch, Tid: bankTid(ev)}}
	case KindRead:
		return []ChromeEvent{{Name: "RD", Ph: "X", Ts: ev.At, Dur: dur(ev), Pid: ch, Tid: bankTid(ev),
			Args: map[string]any{"row": ev.Row, "bus_cycles": ev.Aux}}}
	case KindWrite:
		return []ChromeEvent{{Name: "WR", Ph: "X", Ts: ev.At, Dur: dur(ev), Pid: ch, Tid: bankTid(ev),
			Args: map[string]any{"row": ev.Row, "bus_cycles": ev.Aux}}}
	case KindRefresh:
		return []ChromeEvent{{Name: "REF", Ph: "X", Ts: ev.At, Dur: dur(ev), Pid: ch, Tid: tidPower}}
	case KindRowConflict:
		return []ChromeEvent{{Name: "row-conflict", Ph: "i", Ts: ev.At, Pid: ch, Tid: bankTid(ev), Scope: "t",
			Args: map[string]any{"row": ev.Row}}}
	case KindPowerDown:
		name := "power-down"
		if ev.Flags&FlagPrechargedPD != 0 {
			name = "precharge power-down"
		}
		start := ev.End - ev.Aux
		return []ChromeEvent{
			{Name: name, Ph: "X", Ts: start, Dur: dur(Event{At: start, End: ev.End}), Pid: ch, Tid: tidPower},
			{Name: "power_state", Ph: "C", Ts: start, Pid: ch, Tid: tidPower, Args: map[string]any{"state": 1}},
			{Name: "power_state", Ph: "C", Ts: ev.End, Pid: ch, Tid: tidPower, Args: map[string]any{"state": 0}},
		}
	case KindSelfRefresh:
		start := ev.End - ev.Aux
		return []ChromeEvent{
			{Name: "self-refresh", Ph: "X", Ts: start, Dur: dur(Event{At: start, End: ev.End}), Pid: ch, Tid: tidPower},
			{Name: "power_state", Ph: "C", Ts: start, Pid: ch, Tid: tidPower, Args: map[string]any{"state": 2}},
			{Name: "power_state", Ph: "C", Ts: ev.End, Pid: ch, Tid: tidPower, Args: map[string]any{"state": 0}},
		}
	case KindEnqueue:
		return []ChromeEvent{
			{Name: "enqueue", Ph: "i", Ts: ev.At, Pid: ch, Tid: tidRequests, Scope: "t"},
			{Name: "queue_depth", Ph: "C", Ts: ev.At, Pid: ch, Tid: tidRequests, Args: map[string]any{"depth": ev.Depth}},
		}
	case KindComplete:
		return []ChromeEvent{
			{Name: "complete", Ph: "i", Ts: ev.At, Pid: ch, Tid: tidRequests, Scope: "t",
				Args: map[string]any{"latency_cycles": ev.Aux}},
			{Name: "queue_depth", Ph: "C", Ts: ev.At, Pid: ch, Tid: tidRequests, Args: map[string]any{"depth": ev.Depth}},
		}
	case KindChannelFail:
		// Process-scoped instant so the dropout is visible on every track
		// of the channel at the failure point.
		return []ChromeEvent{{Name: "CHANNEL FAIL", Ph: "i", Ts: ev.At, Pid: ch, Tid: tidRequests, Scope: "p",
			Args: map[string]any{"failed_channel": ev.Aux}}}
	case KindThermalDerate:
		return []ChromeEvent{{Name: "thermal-derate", Ph: "i", Ts: ev.At, Pid: ch, Tid: tidPower, Scope: "p",
			Args: map[string]any{"refresh_interval_cycles": ev.Aux}}}
	case KindReadRetry:
		return []ChromeEvent{{Name: "read-retry", Ph: "i", Ts: ev.At, Pid: ch, Tid: tidRequests, Scope: "t",
			Args: map[string]any{"attempt": ev.Aux}}}
	case KindStall:
		return []ChromeEvent{{Name: "stall", Ph: "X", Ts: ev.At, Dur: dur(ev), Pid: ch, Tid: tidRequests,
			Args: map[string]any{"stall_cycles": ev.Aux}}}
	case KindDegrade:
		return []ChromeEvent{{Name: "degrade", Ph: "i", Ts: ev.At, Pid: ch, Tid: tidRequests, Scope: "p",
			Args: map[string]any{"ladder_level": ev.Aux}}}
	case KindRecover:
		return []ChromeEvent{{Name: "recover", Ph: "i", Ts: ev.At, Pid: ch, Tid: tidRequests, Scope: "p",
			Args: map[string]any{"frame": ev.Aux}}}
	default:
		// Row hits/misses stay in the time series; they would double the
		// trace size for little visual value.
		return nil
	}
}
