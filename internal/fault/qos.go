package fault

import (
	"fmt"
	"strings"
)

// Step records one degradation action the engine applied after a deadline
// miss: the frame index it reacted to and the ladder action taken.
type Step struct {
	Frame  int
	Action string
}

// QoS is the quality-of-service report of a faulty (or fault-free) run:
// how the recording behaved frame by frame while the fault plan played out
// and the degradation engine reacted. Every field derives from the
// deterministic simulation, so two runs with the same seed render
// byte-identical reports.
type QoS struct {
	// Frames is the number of frame slots evaluated; DroppedFrames the
	// slots intentionally skipped by frame-rate degradation; LateFrames
	// the frames finishing inside their slot but deep into the processing
	// margin; DeadlineMisses the frames finishing after their slot.
	Frames         int
	DroppedFrames  int
	LateFrames     int
	DeadlineMisses int

	// FailedChannel is the dropped channel index (-1 = none) and
	// DropClock the dispatch-clock cycle the dropout fired at.
	FailedChannel int
	DropClock     int64

	// Fault activity accumulated over all channels.
	Counters Counters

	// Steps are the degradation-ladder actions, in application order.
	Steps []Step
	// FirstMissFrame is the first frame that missed its deadline and
	// RecoveredFrame the first later frame that met it again (-1 = n/a).
	FirstMissFrame int
	RecoveredFrame int
}

// NewQoS returns an empty report with the sentinel fields initialized.
func NewQoS(frames int) QoS {
	return QoS{Frames: frames, FailedChannel: -1, FirstMissFrame: -1, RecoveredFrame: -1}
}

// TimeToRecoverFrames is the frame distance from the first deadline miss to
// the first subsequent on-time frame; -1 when the run never missed, or
// missed and never recovered.
func (q QoS) TimeToRecoverFrames() int {
	if q.FirstMissFrame < 0 || q.RecoveredFrame < 0 {
		return -1
	}
	return q.RecoveredFrame - q.FirstMissFrame
}

// Recovered reports whether the run ended in a state meeting deadlines
// again (or never lost them).
func (q QoS) Recovered() bool {
	return q.FirstMissFrame < 0 || q.RecoveredFrame >= 0
}

// Report renders the deterministic multi-line QoS summary the CLIs print
// and the CI determinism gate diffs byte-for-byte.
func (q QoS) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "QoS report\n")
	fmt.Fprintf(&b, "  frames:            %d (%d dropped, %d late, %d deadline misses)\n",
		q.Frames, q.DroppedFrames, q.LateFrames, q.DeadlineMisses)
	if q.FailedChannel >= 0 {
		fmt.Fprintf(&b, "  channel failure:   channel %d at dispatch cycle %d\n", q.FailedChannel, q.DropClock)
	} else {
		fmt.Fprintf(&b, "  channel failure:   none\n")
	}
	fmt.Fprintf(&b, "  thermal derates:   %d\n", q.Counters.Derates)
	fmt.Fprintf(&b, "  read errors:       %d (retries %d, exhausted %d)\n",
		q.Counters.ReadErrors, q.Counters.Retries, q.Counters.RetriesExhausted)
	fmt.Fprintf(&b, "  controller stalls: %d (+%d cycles)\n", q.Counters.Stalls, q.Counters.StallCycles)
	if len(q.Steps) == 0 {
		fmt.Fprintf(&b, "  degradation:       none\n")
	} else {
		for i, s := range q.Steps {
			label := "  degradation:      "
			if i > 0 {
				label = "                    "
			}
			fmt.Fprintf(&b, "%s after frame %d: %s\n", label, s.Frame, s.Action)
		}
	}
	switch {
	case q.FirstMissFrame < 0:
		fmt.Fprintf(&b, "  recovery:          never degraded\n")
	case q.RecoveredFrame >= 0:
		fmt.Fprintf(&b, "  recovery:          frame %d (%d frame(s) after first miss)\n",
			q.RecoveredFrame, q.TimeToRecoverFrames())
	default:
		fmt.Fprintf(&b, "  recovery:          not recovered within the run\n")
	}
	return b.String()
}
