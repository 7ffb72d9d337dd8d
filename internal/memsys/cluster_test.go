package memsys

import (
	"testing"

	"repro/internal/units"
)

func TestNewClusteredValidates(t *testing.T) {
	base := PaperConfig(0, 400*units.MHz)
	if _, err := NewClustered(base, nil); err == nil {
		t.Error("expected empty-cluster error")
	}
	if _, err := NewClustered(base, []ClusterSpec{{Name: "a", Channels: 0}}); err == nil {
		t.Error("expected channels error")
	}
	bad := PaperConfig(0, 50*units.MHz)
	if _, err := NewClustered(bad, []ClusterSpec{{Name: "a", Channels: 2}}); err == nil {
		t.Error("expected frequency error")
	}
}

func TestClusteredLayout(t *testing.T) {
	c, err := NewClustered(PaperConfig(0, 400*units.MHz), []ClusterSpec{
		{Name: "record", Channels: 4},
		{Name: "playback", Channels: 2},
		{Name: "spare", Channels: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, sys := range c.systems {
		total += len(sys.Channels())
	}
	if total != 8 {
		t.Errorf("total channels = %d, want 8", total)
	}
	if got := c.PeakBandwidth().GBps(); got != 25.6 {
		t.Errorf("peak = %v GB/s, want 25.6", got)
	}
	if len(c.systems) != 3 || len(c.specs) != 3 {
		t.Errorf("layout wrong: %d systems, %d specs", len(c.systems), len(c.specs))
	}
}

// A cluster behaves exactly like a standalone system of the same size.
func TestClusterMatchesStandalone(t *testing.T) {
	c, err := NewClustered(PaperConfig(0, 400*units.MHz), []ClusterSpec{
		{Name: "a", Channels: 2},
		{Name: "b", Channels: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{{Addr: 0, Bytes: 1 << 18}}
	results, err := c.Run([]Source{NewSliceSource(reqs), nil})
	if err != nil {
		t.Fatal(err)
	}
	if !results[1].Idle {
		t.Error("cluster b should be idle")
	}
	standalone, err := New(PaperConfig(2, 400*units.MHz))
	if err != nil {
		t.Fatal(err)
	}
	want, err := standalone.Run(NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Result.Cycles != want.Cycles {
		t.Errorf("cluster makespan %d != standalone %d", results[0].Result.Cycles, want.Cycles)
	}
	if got := Makespan(results); got != want.Time {
		t.Errorf("Makespan = %v, want %v", got, want.Time)
	}
}

func TestClusteredRunValidatesSources(t *testing.T) {
	c, err := NewClustered(PaperConfig(0, 400*units.MHz), []ClusterSpec{{Name: "a", Channels: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(nil); err == nil {
		t.Error("expected source-count error")
	}
	if _, err := c.Run([]Source{NewSliceSource([]Request{{Bytes: -1}})}); err == nil {
		t.Error("expected request error surfaced with cluster name")
	}
}

func TestClusteredReset(t *testing.T) {
	c, err := NewClustered(PaperConfig(0, 400*units.MHz), []ClusterSpec{{Name: "a", Channels: 1}})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{{Addr: 0, Bytes: 4096}}
	r1, err := c.Run([]Source{NewSliceSource(reqs)})
	if err != nil {
		t.Fatal(err)
	}
	c.Reset()
	r2, err := c.Run([]Source{NewSliceSource(reqs)})
	if err != nil {
		t.Fatal(err)
	}
	if r1[0].Result.Cycles != r2[0].Result.Cycles {
		t.Error("reset did not restore cluster state")
	}
}

func TestMergeBalancesBytes(t *testing.T) {
	a := NewSliceSource([]Request{
		{Addr: 0, Bytes: 100}, {Addr: 100, Bytes: 100}, {Addr: 200, Bytes: 100},
	})
	b := NewSliceSource([]Request{
		{Addr: 1000, Bytes: 300},
	})
	m := Merge(a, b)
	// First pull: both at 0 emitted, source a (first) wins. Second pull:
	// a has 100 emitted, b has 0 -> b emits its 300. Then a drains.
	var order []int64
	for {
		r, ok := m.Next()
		if !ok {
			break
		}
		order = append(order, r.Addr)
	}
	want := []int64{0, 1000, 100, 200}
	if len(order) != len(want) {
		t.Fatalf("merged %d requests, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("merge order[%d] = %d, want %d", i, order[i], want[i])
		}
	}
}

func TestMergeSkipsNilAndEmpty(t *testing.T) {
	m := Merge(nil, NewSliceSource(nil), NewSliceSource([]Request{{Addr: 5, Bytes: 1}}))
	r, ok := m.Next()
	if !ok || r.Addr != 5 {
		t.Errorf("merge skipped content: %+v ok=%v", r, ok)
	}
	if _, ok := m.Next(); ok {
		t.Error("expected end of merged stream")
	}
	if _, ok := Merge().Next(); ok {
		t.Error("empty merge should end immediately")
	}
}
