package memsys

import (
	"fmt"

	"repro/internal/units"
)

// ClusterSpec names one independent channel cluster and its size.
type ClusterSpec struct {
	Name     string
	Channels int
}

// Clustered partitions a large multi-channel memory into independent channel
// clusters, the organization the paper's conclusions propose for beyond-HD
// devices: "it may be necessary to divide very large multi-channel memories
// into independent channel clusters, each consisting of reasonable number
// of channels". Each cluster has its own interleave and address space and
// serves its own master; idle clusters can rest in deep power-down.
type Clustered struct {
	specs   []ClusterSpec
	systems []*System
}

// NewClustered builds the clusters. Every cluster inherits base's device,
// clock and policies; base.Channels is ignored (each spec sets its own).
func NewClustered(base Config, specs []ClusterSpec) (*Clustered, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("memsys: no clusters")
	}
	c := &Clustered{specs: append([]ClusterSpec(nil), specs...)}
	for _, spec := range specs {
		if spec.Channels <= 0 {
			return nil, fmt.Errorf("memsys: cluster %q with %d channels", spec.Name, spec.Channels)
		}
		cfg := base
		cfg.Channels = spec.Channels
		sys, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("memsys: cluster %q: %w", spec.Name, err)
		}
		c.systems = append(c.systems, sys)
	}
	return c, nil
}

// PeakBandwidth returns the aggregate theoretical bandwidth.
func (c *Clustered) PeakBandwidth() units.Bandwidth {
	var bw units.Bandwidth
	for _, s := range c.systems {
		bw += s.PeakBandwidth()
	}
	return bw
}

// ClusterResult pairs a cluster with its run result. A nil source leaves
// the cluster idle (zero result).
type ClusterResult struct {
	Spec   ClusterSpec
	Result Result
	Idle   bool
}

// Run drives each cluster with its own transaction source; sources[i] may
// be nil for an idle cluster. Clusters are fully independent, so they run
// in isolation and the slowest one defines the combined makespan.
func (c *Clustered) Run(sources []Source) ([]ClusterResult, error) {
	if len(sources) != len(c.systems) {
		return nil, fmt.Errorf("memsys: %d sources for %d clusters", len(sources), len(c.systems))
	}
	results := make([]ClusterResult, len(c.systems))
	for i, sys := range c.systems {
		results[i].Spec = c.specs[i]
		if sources[i] == nil {
			results[i].Idle = true
			continue
		}
		res, err := sys.Run(sources[i])
		if err != nil {
			return nil, fmt.Errorf("memsys: cluster %q: %w", c.specs[i].Name, err)
		}
		results[i].Result = res
	}
	return results, nil
}

// Makespan returns the longest cluster makespan of a run.
func Makespan(results []ClusterResult) units.Duration {
	var m units.Duration
	for _, r := range results {
		if r.Result.Time > m {
			m = r.Result.Time
		}
	}
	return m
}

// Reset restores every cluster.
func (c *Clustered) Reset() {
	for _, s := range c.systems {
		s.Reset()
	}
}

// Merge interleaves several transaction sources onto one memory,
// byte-balanced: each Next serves the source that has emitted the fewest
// bytes so far. This models concurrent use cases (the paper: "the system
// rarely runs only a single use case") sharing a fully interleaved memory.
func Merge(sources ...Source) Source {
	m := &mergeSource{}
	for _, s := range sources {
		if s != nil {
			m.entries = append(m.entries, mergeEntry{src: s})
		}
	}
	return m
}

type mergeEntry struct {
	src     Source
	emitted int64
	done    bool
}

type mergeSource struct {
	entries []mergeEntry
}

// Next implements Source.
func (m *mergeSource) Next() (Request, bool) {
	for {
		best := -1
		for i := range m.entries {
			if m.entries[i].done {
				continue
			}
			if best < 0 || m.entries[i].emitted < m.entries[best].emitted {
				best = i
			}
		}
		if best < 0 {
			return Request{}, false
		}
		req, ok := m.entries[best].src.Next()
		if !ok {
			m.entries[best].done = true
			continue
		}
		m.entries[best].emitted += req.Bytes
		return req, true
	}
}
