package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/internal/counterparty"
	"repro/internal/telemetry"
)

// traceMetrics come from the traced pass only: virtual-time stage spans per
// packet, the CPU profile folded by layer, and what tracing itself cost.
var traceMetrics = func() []metricSpec {
	out := []metricSpec{
		{name: "stage.send_to_commit_s", unit: "s", better: "lower"},
		{name: "stage.commit_to_finalise_s", unit: "s", better: "lower"},
		{name: "stage.finalise_to_pickup_s", unit: "s", better: "lower"},
		{name: "stage.pickup_to_recv_s", unit: "s", better: "lower"},
		{name: "stage.recv_to_ack_s", unit: "s", better: "lower"},
	}
	for _, l := range cpuLayers {
		out = append(out, metricSpec{name: "cpu." + l + ".share", unit: "ratio", better: "lower"})
	}
	return append(out, metricSpec{name: "trace.overhead_pct", unit: "%", better: "lower"})
}()

// span is one recorded call from the benchmark into a layer, in host time.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0: a root span
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanRecorder keeps the traced pass's spans in memory; they are written
// out when the benchmark ends. A nil recorder records nothing, which is
// how the untraced passes run the same code.
type spanRecorder struct {
	t0    time.Time
	spans []span
	stack []int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

var noSpan = func() {}

// begin opens a span under the innermost open one and returns the call
// that closes it.
func (r *spanRecorder) begin(name string) func() {
	if r == nil {
		return noSpan
	}
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartUS: r.sinceUS()})
	r.stack = append(r.stack, id)
	return func() {
		r.spans[id-1].EndUS = r.sinceUS()
		r.stack = r.stack[:len(r.stack)-1]
	}
}

func (r *spanRecorder) sinceUS() float64 {
	return float64(time.Since(r.t0)) / float64(time.Microsecond)
}

// spanSummary is one span name's totals. Self time is a span's duration
// minus the part its child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func (r *spanRecorder) summary() []spanSummary {
	children := make([]float64, len(r.spans)+1)
	for _, s := range r.spans {
		children[s.Parent] += s.EndUS - s.StartUS
	}
	byName := make(map[string]*spanSummary)
	for _, s := range r.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		d := s.EndUS - s.StartUS
		sum.Count++
		sum.TotalUS += d
		sum.SelfUS += d - children[s.ID]
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the run's spans as JSON; runID is shared by every span of
// the file.
func (r *spanRecorder) write(path, runID string) error {
	buf, err := json.Marshal(struct {
		Run     string        `json:"run"`
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{runID, r.summary(), r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// stageMedians returns the p50 of each per-packet stage in virtual seconds.
//
// Guest-sourced packets carry all five stages in the program's own tracer
// (the guest relayer marks them). For counterparty-sourced packets the
// tracer is silent, so the stages come from outside: the source handler's
// SendPacket event, the counterparty block that committed the packet
// (final at once under BFT, and the relayer is notified in the same
// virtual instant, so commit→finalise→pickup is the block wait and then
// 0), the destination's WriteAck and the source's AcknowledgePacket.
func stageMedians(pr *phaseRun) map[string]float64 {
	var stages [5][]float64
	add := func(i int, from, to time.Duration) {
		if from != unset && to != unset && to >= from {
			stages[i] = append(stages[i], (to - from).Seconds())
		}
	}
	if traces := pr.net.Tel.Tracer.Snapshot(); len(traces) > 0 {
		order := []string{telemetry.StageSend, telemetry.StageCommit, telemetry.StageFinalise,
			telemetry.StagePickup, telemetry.StageRecv, telemetry.StageAck}
		for _, tr := range traces {
			for i := 0; i < 5; i++ {
				a, okA := tr.Span(order[i])
				b, okB := tr.Span(order[i+1])
				if okA && okB && !b.At.Before(a.At) {
					stages[i] = append(stages[i], b.At.Sub(a.At).Seconds())
				}
			}
		}
	} else if pr.net.CP != nil {
		committed := make(map[int]time.Duration) // transfer → offset of its cp block
		events, _ := pr.net.CP.EventsSince(0)
		for _, ev := range events {
			pc, ok := ev.Payload.(counterparty.EventPacketsCommitted)
			if !ok {
				continue
			}
			h, err := pr.net.CP.HeaderAt(ev.Height)
			if err != nil {
				continue
			}
			for _, p := range pc.Packets {
				if id, ok := tagOf(p.Data); ok && id < len(pr.transfers) {
					committed[id] = h.Time.Sub(pr.start)
				}
			}
		}
		for i := range pr.transfers {
			t := &pr.transfers[i]
			block, ok := committed[i]
			if !ok {
				continue
			}
			add(0, t.due, t.commitAt)
			add(1, t.commitAt, block)
			add(2, block, block)
			add(3, block, t.recvAt)
			add(4, t.recvAt, t.ackAt)
		}
	}
	out := make(map[string]float64, 5)
	for i, name := range []string{"stage.send_to_commit_s", "stage.commit_to_finalise_s",
		"stage.finalise_to_pickup_s", "stage.pickup_to_recv_s", "stage.recv_to_ack_s"} {
		out[name] = median(stages[i])
	}
	return out
}
