package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Span tracing: the causal tier above the flight recorder's point
// events. Where the trace answers "what happened", spans answer "where
// did the time go" — each one is an interval (or an instant) on a named
// track, exportable as Chrome trace_event JSON that loads directly in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Spans are gated twice: a nil recorder costs one pointer comparison
// (as everywhere in obs), and an attached recorder records spans only
// after EnableSpans. The default benchmark scenarios never enable
// spans, which is what keeps the committed golden artifacts
// (BENCH_metrics.json, BENCH_perf.json, table2/fig7) byte-identical —
// span instrumentation throughout the pipeline checks SpansEnabled
// before doing any work.
//
// The taxonomy follows the trace_event format:
//
//   - PhaseSlice ('X'): a complete interval on a track — a task's run
//     slice between two scheduler dispatches.
//   - PhaseBegin/PhaseEnd ('B'/'E'): a nested synchronous interval —
//     e.g. a DSU state transfer inside the runtime's update point.
//   - PhaseAsyncBegin/PhaseAsyncEnd ('b'/'e'): a long-lived arc that
//     other work interleaves with, paired by (track, id) — controller
//     stages, MVE role epochs, fork→promote windows, and in-flight
//     client requests (the request id doubles as the span id).
//   - PhaseInstant ('i'): a point marker; milestones (divergence,
//     stall, fault, ...) are mapped to instants at export time.

// SpanPhase is the trace_event phase of a span event.
type SpanPhase byte

// Span phases (values are the Chrome trace_event ph letters).
const (
	PhaseSlice      SpanPhase = 'X'
	PhaseBegin      SpanPhase = 'B'
	PhaseEnd        SpanPhase = 'E'
	PhaseAsyncBegin SpanPhase = 'b'
	PhaseAsyncEnd   SpanPhase = 'e'
	PhaseInstant    SpanPhase = 'i'
)

// SpanEvent is one recorded span record (virtual-clock timestamps).
type SpanEvent struct {
	Phase  SpanPhase
	At     time.Duration // virtual start time
	Dur    time.Duration // PhaseSlice only
	Track  string        // task name, proc name, or subsystem
	Name   string
	ID     uint64 // async pairing id (async phases only)
	Detail string
}

// asyncSeqBase starts recorder-allocated async ids above the uint32
// range so they can never collide with client request ids, which share
// the async id space on the "request" track.
const asyncSeqBase = uint64(1) << 32

// EnableSpans turns on span recording. Until it is called every span
// method is a no-op after one boolean check, and all span-gated
// instrumentation across the pipeline (dsu, vos, request attribution)
// stays dark — which is what keeps un-spanned runs byte-identical to
// the committed golden artifacts.
func (r *Recorder) EnableSpans() {
	if r == nil {
		return
	}
	r.spansOn = true
}

// SpansEnabled reports whether span recording is on. Instrumentation
// sites gate on this before constructing span arguments.
func (r *Recorder) SpansEnabled() bool { return r != nil && r.spansOn }

// Slice records a complete interval [start, end] on a track (trace_event
// 'X'). The scheduler's dispatch hook uses it for task run slices.
func (r *Recorder) Slice(track, name string, start, end time.Duration) {
	if !r.SpansEnabled() {
		return
	}
	if end < start {
		end = start
	}
	r.spans.Push(SpanEvent{Phase: PhaseSlice, At: start, Dur: end - start, Track: track, Name: name})
}

// BeginSpan opens a synchronous nested span on a track ('B'). Pair with
// EndSpan on the same track; nesting is by emission order, as in the
// trace_event format.
func (r *Recorder) BeginSpan(track, name, detail string) {
	if !r.SpansEnabled() {
		return
	}
	r.spans.Push(SpanEvent{Phase: PhaseBegin, At: r.now(), Track: track, Name: name, Detail: detail})
}

// EndSpan closes the innermost open synchronous span on a track ('E').
func (r *Recorder) EndSpan(track, name string) {
	if !r.SpansEnabled() {
		return
	}
	r.spans.Push(SpanEvent{Phase: PhaseEnd, At: r.now(), Track: track, Name: name})
}

// BeginAsync opens a long-lived async span and returns the id EndAsync
// must be called with. Async spans may overlap freely; viewers pair
// them by (track, id).
func (r *Recorder) BeginAsync(track, name, detail string) uint64 {
	if !r.SpansEnabled() {
		return 0
	}
	r.asyncSeq++
	id := asyncSeqBase + r.asyncSeq
	r.BeginAsyncID(track, name, detail, id)
	return id
}

// BeginAsyncID opens an async span under a caller-chosen id — used for
// request spans, where the client's request id is the natural span id.
func (r *Recorder) BeginAsyncID(track, name, detail string, id uint64) {
	if !r.SpansEnabled() {
		return
	}
	r.spans.Push(SpanEvent{Phase: PhaseAsyncBegin, At: r.now(), Track: track, Name: name, ID: id, Detail: detail})
}

// EndAsync closes the async span opened under id on the given track.
func (r *Recorder) EndAsync(track, name string, id uint64) {
	if !r.SpansEnabled() {
		return
	}
	r.spans.Push(SpanEvent{Phase: PhaseAsyncEnd, At: r.now(), Track: track, Name: name, ID: id})
}

// InstantSpan records a point marker on a track ('i').
func (r *Recorder) InstantSpan(track, name, detail string) {
	if !r.SpansEnabled() {
		return
	}
	r.spans.Push(SpanEvent{Phase: PhaseInstant, At: r.now(), Track: track, Name: name, Detail: detail})
}

// Spans returns the retained span events in emission order (oldest
// surviving first).
func (r *Recorder) Spans() []SpanEvent {
	if r == nil {
		return nil
	}
	return r.spans.Items()
}

// SpansDropped returns how many span events the bounded store evicted.
func (r *Recorder) SpansDropped() int64 {
	if r == nil {
		return 0
	}
	return r.spans.Dropped()
}

// chromeEvent is one trace_event record on the wire.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  *float64          `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Cat  string            `json:"cat,omitempty"`
	ID   string            `json:"id,omitempty"`
	S    string            `json:"s,omitempty"`  // instant scope
	BP   string            `json:"bp,omitempty"` // flow binding point ("e" on flow finish)
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the trace_event JSON object format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromePid is the single process id all tracks live under.
const chromePid = 1

// ExportChromeTrace renders the recorded spans plus the milestone
// timeline (as instant events) in Chrome trace_event JSON — load the
// output in https://ui.perfetto.dev or chrome://tracing. Each distinct
// track becomes a named thread; tids are assigned in order of first
// appearance, so the export is fully deterministic. Safe on nil and on
// a recorder without spans enabled (exports whatever is retained,
// possibly just milestones).
func (r *Recorder) ExportChromeTrace() ([]byte, error) {
	// The process metadata event is emitted even for a nil recorder or an
	// empty span store, so every export — including one taken before any
	// spans were recorded — is a valid metadata-only trace that viewers
	// and ValidateChromeTrace accept.
	trace := chromeTrace{
		TraceEvents: []chromeEvent{{
			Name: "process_name", Ph: "M", Pid: chromePid, Tid: 0,
			Args: map[string]string{"name": "mvedsua"},
		}},
		DisplayTimeUnit: "ms",
	}
	if r == nil {
		return json.MarshalIndent(trace, "", "  ")
	}

	type rawEvent struct {
		at time.Duration
		ev chromeEvent
	}
	var raw []rawEvent
	tids := map[string]int{}
	order := []string{}
	tidFor := func(track string) int {
		if id, ok := tids[track]; ok {
			return id
		}
		id := len(tids) + 1
		tids[track] = id
		order = append(order, track)
		return id
	}

	for _, s := range r.Spans() {
		ev := chromeEvent{
			Name: s.Name,
			Ph:   string(rune(s.Phase)),
			Ts:   float64(s.At) / float64(time.Microsecond),
			Pid:  chromePid,
			Tid:  tidFor(s.Track),
		}
		switch s.Phase {
		case PhaseSlice:
			d := float64(s.Dur) / float64(time.Microsecond)
			ev.Dur = &d
		case PhaseAsyncBegin, PhaseAsyncEnd:
			ev.Cat = s.Track
			ev.ID = fmt.Sprintf("0x%x", s.ID)
		case PhaseInstant:
			ev.S = "t"
		}
		if s.Detail != "" {
			ev.Args = map[string]string{"detail": s.Detail}
		}
		raw = append(raw, rawEvent{at: s.At, ev: ev})
	}

	// Milestones become instant events on a track per actor, so the
	// lifecycle story (divergence, stall, fault, stage, role, ...) lines
	// up against the spans it explains.
	for _, m := range r.Milestones() {
		ev := chromeEvent{
			Name: m.Kind.String(),
			Ph:   "i",
			Ts:   float64(m.At) / float64(time.Microsecond),
			Pid:  chromePid,
			Tid:  tidFor(m.Actor),
			S:    "t",
		}
		if m.Detail != "" {
			ev.Args = map[string]string{"detail": m.Detail}
		}
		raw = append(raw, rawEvent{at: m.At, ev: ev})
	}

	sort.SliceStable(raw, func(i, j int) bool { return raw[i].at < raw[j].at })

	// Metadata first: the process name (already emitted above) plus one
	// thread name per track.
	for _, track := range order {
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: tids[track],
			Args: map[string]string{"name": track},
		})
	}
	for _, re := range raw {
		trace.TraceEvents = append(trace.TraceEvents, re.ev)
	}
	return json.MarshalIndent(trace, "", "  ")
}
