package memsys

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// activeRunCounter counts System.Run calls process-wide; nil when
// disabled, so the disabled cost is one pointer load per Run.
var activeRunCounter atomic.Pointer[metrics.Counter]

// EnableMetrics registers the memsys_runs_total counter in r and starts
// counting; nil disables. Normally called through core.EnableMetrics.
func EnableMetrics(r *metrics.Registry) {
	if r == nil {
		activeRunCounter.Store(nil)
		return
	}
	activeRunCounter.Store(r.Counter("memsys_runs_total"))
}
