// Windowed time-series collection: the TimeSeries sink buckets the event
// stream into fixed-length cycle epochs per channel, yielding bandwidth,
// row-outcome, latency, queue-depth and power-state residency curves that
// sum back exactly to the run's aggregate stats.Channel counters.
package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/stats"
)

// Epoch accumulates one channel's activity over one window of cycles
// [Start, Start+window).
type Epoch struct {
	// Start is the first cycle of the window.
	Start int64 `json:"start"`

	// Command and burst counts attributed by command-issue cycle.
	Reads      int64 `json:"reads"`
	Writes     int64 `json:"writes"`
	Activates  int64 `json:"activates"`
	Precharges int64 `json:"precharges"`
	Refreshes  int64 `json:"refreshes"`

	// Row-buffer outcomes.
	RowHits      int64 `json:"row_hits"`
	RowMisses    int64 `json:"row_misses"`
	RowConflicts int64 `json:"row_conflicts"`

	// Data-bus occupancy inside the window, split by direction; the
	// window's bus utilization is their sum over the window length.
	ReadBusCycles  int64 `json:"read_bus_cycles"`
	WriteBusCycles int64 `json:"write_bus_cycles"`

	// Power-state residency inside the window.
	PowerDownCycles    int64 `json:"powerdown_cycles"`
	PrechargePDCycles  int64 `json:"precharge_pd_cycles"`
	SelfRefreshCycles  int64 `json:"selfrefresh_cycles"`
	PowerDownExits     int64 `json:"powerdown_exits"`
	SelfRefreshEntries int64 `json:"selfrefresh_entries"`

	// Queue-depth samples observed at enqueue/complete events.
	DepthSamples int64 `json:"depth_samples"`
	DepthSum     int64 `json:"depth_sum"`
	DepthMax     int64 `json:"depth_max"`

	// BusyEnd is the latest data-beat cycle observed in the window; the
	// maximum across epochs reconstructs the channel makespan.
	BusyEnd int64 `json:"busy_end"`

	lat stats.Histogram
}

// Latency returns the epoch's request-latency distribution (cycles).
func (e *Epoch) Latency() *stats.Histogram { return &e.lat }

// TimeSeries collects windowed metrics for a fixed number of channels.
// Attach Channel(i) as channel i's sink; each per-channel collector is
// independent and needs no locking.
type TimeSeries struct {
	window int64
	chans  []*tsChan
}

// NewTimeSeries builds a collector for the given channel count and window
// length in DRAM cycles.
func NewTimeSeries(channels int, window int64) (*TimeSeries, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("probe: time series over %d channels", channels)
	}
	if window <= 0 {
		return nil, fmt.Errorf("probe: non-positive window %d", window)
	}
	ts := &TimeSeries{window: window, chans: make([]*tsChan, channels)}
	for i := range ts.chans {
		ts.chans[i] = &tsChan{window: window}
	}
	return ts, nil
}

// Window returns the epoch length in cycles.
func (ts *TimeSeries) Window() int64 { return ts.window }

// Channels returns the channel count.
func (ts *TimeSeries) Channels() int { return len(ts.chans) }

// Channel returns channel ch's sink.
func (ts *TimeSeries) Channel(ch int) Sink { return ts.chans[ch] }

// Epochs returns channel ch's windows in time order. The slice aliases the
// collector's storage; treat it as read-only while the run is live.
func (ts *TimeSeries) Epochs(ch int) []Epoch { return ts.chans[ch].epochs }

// ChannelTotal reconstructs channel ch's aggregate counters by summing its
// epochs — by construction equal to the stats.Channel the controller
// accumulated over the same run.
func (ts *TimeSeries) ChannelTotal(ch int) stats.Channel {
	var t stats.Channel
	for i := range ts.chans[ch].epochs {
		e := &ts.chans[ch].epochs[i]
		t.Reads += e.Reads
		t.Writes += e.Writes
		t.Activates += e.Activates
		t.Precharges += e.Precharges
		t.Refreshes += e.Refreshes
		t.RowHits += e.RowHits
		t.RowMisses += e.RowMisses
		t.RowConflicts += e.RowConflicts
		t.ReadBusCycles += e.ReadBusCycles
		t.WriteBusCycles += e.WriteBusCycles
		t.PowerDownCycles += e.PowerDownCycles
		t.PrechargePDCycles += e.PrechargePDCycles
		t.SelfRefreshCycles += e.SelfRefreshCycles
		t.PowerDownExits += e.PowerDownExits
		t.SelfRefreshEntries += e.SelfRefreshEntries
		if e.BusyEnd > t.BusyCycles {
			t.BusyCycles = e.BusyEnd
		}
	}
	return t
}

// tsChan is one channel's collector.
type tsChan struct {
	window int64
	epochs []Epoch
}

// at returns the epoch containing the cycle, growing the series as needed.
func (tc *tsChan) at(cycle int64) *Epoch {
	if cycle < 0 {
		cycle = 0
	}
	idx := int(cycle / tc.window)
	for len(tc.epochs) <= idx {
		tc.epochs = append(tc.epochs, Epoch{Start: int64(len(tc.epochs)) * tc.window})
	}
	return &tc.epochs[idx]
}

// spread distributes cycles cycles ending at end across the epochs the
// span [end-cycles, end) covers, calling add with each epoch's share.
func (tc *tsChan) spread(end, cycles int64, add func(e *Epoch, share int64)) {
	if cycles <= 0 {
		return
	}
	start := end - cycles
	if start < 0 {
		start = 0
	}
	for start < end {
		e := tc.at(start)
		next := e.Start + tc.window
		share := end - start
		if next < end {
			share = next - start
		}
		add(e, share)
		start = next
	}
}

// Emit implements Sink.
func (tc *tsChan) Emit(ev Event) {
	switch ev.Kind {
	case KindActivate:
		tc.at(ev.At).Activates++
	case KindPrecharge:
		tc.at(ev.At).Precharges++
	case KindRefresh:
		tc.at(ev.At).Refreshes++
	case KindRead:
		e := tc.at(ev.At)
		e.Reads++
		if ev.End > e.BusyEnd {
			e.BusyEnd = ev.End
		}
		tc.spread(ev.End, ev.Aux, func(e *Epoch, share int64) { e.ReadBusCycles += share })
	case KindWrite:
		e := tc.at(ev.At)
		e.Writes++
		if ev.End > e.BusyEnd {
			e.BusyEnd = ev.End
		}
		tc.spread(ev.End, ev.Aux, func(e *Epoch, share int64) { e.WriteBusCycles += share })
	case KindRowHit:
		tc.at(ev.At).RowHits++
	case KindRowMiss:
		tc.at(ev.At).RowMisses++
	case KindRowConflict:
		tc.at(ev.At).RowConflicts++
	case KindPowerDown:
		tc.at(ev.At).PowerDownExits++
		precharged := ev.Flags&FlagPrechargedPD != 0
		tc.spread(ev.End, ev.Aux, func(e *Epoch, share int64) {
			e.PowerDownCycles += share
			if precharged {
				e.PrechargePDCycles += share
			}
		})
	case KindSelfRefresh:
		tc.at(ev.At).SelfRefreshEntries++
		tc.spread(ev.End, ev.Aux, func(e *Epoch, share int64) { e.SelfRefreshCycles += share })
	case KindEnqueue:
		e := tc.at(ev.At)
		e.DepthSamples++
		e.DepthSum += int64(ev.Depth)
		if int64(ev.Depth) > e.DepthMax {
			e.DepthMax = int64(ev.Depth)
		}
	case KindComplete:
		e := tc.at(ev.At)
		e.DepthSamples++
		e.DepthSum += int64(ev.Depth)
		if int64(ev.Depth) > e.DepthMax {
			e.DepthMax = int64(ev.Depth)
		}
		e.lat.Observe(ev.Aux)
	}
}

// csvHeader lists the WriteCSV columns.
var csvHeader = []string{
	"channel", "epoch", "start_cycle", "end_cycle",
	"reads", "writes", "activates", "precharges", "refreshes",
	"row_hits", "row_misses", "row_conflicts",
	"read_bus_cycles", "write_bus_cycles", "bus_util",
	"powerdown_cycles", "precharge_pd_cycles", "selfrefresh_cycles",
	"powerdown_exits", "selfrefresh_entries",
	"requests", "avg_latency", "p50_latency", "p99_latency", "max_latency",
	"avg_queue_depth", "max_queue_depth",
}

// WriteCSV renders every channel's epochs as one flat CSV table, one row
// per (channel, epoch).
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, h := range csvHeader {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(h); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	for ch := range ts.chans {
		for i := range ts.chans[ch].epochs {
			e := &ts.chans[ch].epochs[i]
			util := float64(e.ReadBusCycles+e.WriteBusCycles) / float64(ts.window)
			avgDepth := 0.0
			if e.DepthSamples > 0 {
				avgDepth = float64(e.DepthSum) / float64(e.DepthSamples)
			}
			_, err := fmt.Fprintf(bw, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%d,%d,%d,%d,%d,%d,%.2f,%d,%d,%d,%.2f,%d\n",
				ch, i, e.Start, e.Start+ts.window,
				e.Reads, e.Writes, e.Activates, e.Precharges, e.Refreshes,
				e.RowHits, e.RowMisses, e.RowConflicts,
				e.ReadBusCycles, e.WriteBusCycles, util,
				e.PowerDownCycles, e.PrechargePDCycles, e.SelfRefreshCycles,
				e.PowerDownExits, e.SelfRefreshEntries,
				e.lat.Count(), e.lat.Mean(), e.lat.Quantile(0.5), e.lat.Quantile(0.99), e.lat.Max(),
				avgDepth, e.DepthMax)
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// tsJSON is the WriteJSON document shape.
type tsJSON struct {
	WindowCycles int64           `json:"window_cycles"`
	Channels     []tsChannelJSON `json:"channels"`
}

type tsChannelJSON struct {
	Channel int          `json:"channel"`
	Epochs  []epochJSON  `json:"epochs"`
	Totals  tsTotalsJSON `json:"totals"`
}

type epochJSON struct {
	Epoch
	Requests   int64   `json:"requests"`
	AvgLatency float64 `json:"avg_latency"`
	P50Latency int64   `json:"p50_latency"`
	P99Latency int64   `json:"p99_latency"`
	MaxLatency int64   `json:"max_latency"`
}

type tsTotalsJSON struct {
	stats.Channel
	RowHitRate     float64 `json:"row_hit_rate"`
	BusUtilization float64 `json:"bus_utilization"`
}

// WriteJSON renders the series as one JSON document with per-channel
// epochs and reconstructed totals.
func (ts *TimeSeries) WriteJSON(w io.Writer) error {
	doc := tsJSON{WindowCycles: ts.window}
	for ch := range ts.chans {
		cj := tsChannelJSON{Channel: ch}
		for i := range ts.chans[ch].epochs {
			e := &ts.chans[ch].epochs[i]
			cj.Epochs = append(cj.Epochs, epochJSON{
				Epoch:      *e,
				Requests:   e.lat.Count(),
				AvgLatency: e.lat.Mean(),
				P50Latency: e.lat.Quantile(0.5),
				P99Latency: e.lat.Quantile(0.99),
				MaxLatency: e.lat.Max(),
			})
		}
		tot := ts.ChannelTotal(ch)
		cj.Totals = tsTotalsJSON{Channel: tot, RowHitRate: tot.RowHitRate(), BusUtilization: tot.BusUtilization()}
		doc.Channels = append(doc.Channels, cj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
