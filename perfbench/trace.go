package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer names one span kind. The names are the per-layer metric prefixes
// and the rows of the self-time table.
type layer uint8

const (
	layerRoundtrip layer = iota // client request until its body is read
	layerRouter                 // shard.Router handler
	layerServer                 // one shard's server handler
	layerDecode                 // server.DecodeJSON of a shard request
	layerKey                    // core.CacheKey
	layerEstimate               // core.AnalyticResult
	layerPoint                  // one decomposed simulation, end to end
	layerQueue                  // a point waiting for a sweep worker
	layerLoad                   // load.Generator.Frame drained to a slice
	layerMemsys                 // memsys.System Reset + Run
	layerPower                  // power.NewModel + ChannelEnergy
	numLayers
	noLayer layer = 255
)

var layerNames = [numLayers]string{
	"http.roundtrip", "shard.handler", "server.handler", "server.decode",
	"simcache.key", "analytic.estimate", "core.point", "core.queue_wait",
	"load.gen", "memsys.run", "power.energy",
}

// maxSpans caps the spans kept in memory; later spans still count in the
// per-layer totals but are not written out, and the file says how many.
const maxSpans = 400_000

// span is one timed call into a layer. op groups the spans of one
// operation (a grid point or a client request); parent is the layer whose
// span encloses this one within the same op.
type span struct {
	Layer  layer `json:"l"`
	Parent layer `json:"p"`
	Op     int64 `json:"op"`
	Start  int64 `json:"s"` // ns since the tracer started
	End    int64 `json:"e"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced paths share the traced code.
type tracer struct {
	t0      time.Time
	enabled atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped int64
	count   [numLayers]int64
	total   [numLayers]int64 // ns
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.enabled.Store(true)
	return t
}

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

func (t *tracer) now() int64 {
	if !t.on() {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) record(l, parent layer, op, start, end int64) {
	if !t.on() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count[l]++
	t.total[l] += end - start
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Layer: l, Parent: parent, Op: op, Start: start, End: end})
	} else {
		t.dropped++
	}
}

// layerStat is one row of the self-time table.
type layerStat struct {
	Layer string  `json:"layer"`
	Count int64   `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
	Mean  float64 `json:"mean_s"`
	// SelfMean is self time per kept span.
	SelfMean float64 `json:"self_mean_s"`
}

// table computes each layer's call count, total time and self time: a
// span's duration minus the part of it its child spans (same op, parent
// = its layer) cover. Self time is summed over the kept spans only.
func (t *tracer) table() []layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := map[int64][]int{}
	for i, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], i)
	}
	var self, kept [numLayers]int64
	for _, idx := range byOp {
		for _, i := range idx {
			s := t.spans[i]
			kept[s.Layer]++
			var kids [][2]int64
			for _, j := range idx {
				c := t.spans[j]
				if j != i && c.Parent == s.Layer {
					kids = append(kids, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
				}
			}
			self[s.Layer] += s.End - s.Start - covered(kids)
		}
	}
	var out []layerStat
	for l := layer(0); l < numLayers; l++ {
		st := layerStat{Layer: layerNames[l], Count: t.count[l], Total: float64(t.total[l]) / 1e9, Self: float64(self[l]) / 1e9}
		if st.Count > 0 {
			st.Mean = st.Total / float64(st.Count)
		}
		if kept[l] > 0 {
			st.SelfMean = st.Self / float64(kept[l])
		}
		out = append(out, st)
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, end int64
	first := true
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		switch {
		case first || v[0] >= end:
			sum += v[1] - v[0]
			end = v[1]
			first = false
		case v[1] > end:
			sum += v[1] - end
			end = v[1]
		}
	}
	return sum
}

// write stores the spans, the self-time table and the run record in
// dir/perfbench-trace-<workload>-<seed>.json and returns the path.
func (t *tracer) write(dir string, opt options, tab []layerStat, record map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("perfbench-trace-%s-%d.json", opt.workload, opt.seed))
	t.mu.Lock()
	doc := struct {
		Record  map[string]any `json:"record"`
		Layers  []string       `json:"layer_names"`
		Table   []layerStat    `json:"self_time"`
		Dropped int64          `json:"spans_dropped"`
		Spans   []span         `json:"spans"`
	}{record, layerNames[:], tab, t.dropped, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}

// printTable adds the self-time table to the report's summary lines.
func printTable(rep *report, tab []layerStat) {
	rep.printf("%-18s %10s %12s %12s %14s", "layer", "calls", "total_s", "self_s", "mean_s/call")
	for _, st := range tab {
		if st.Count == 0 {
			continue
		}
		rep.printf("%-18s %10d %12.6f %12.6f %14.9f", st.Layer, st.Count, st.Total, st.Self, st.Mean)
	}
}
