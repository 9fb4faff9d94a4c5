package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// Lane identifies which dispatch lane completed a merge. The zero value
// (LaneNone) means "not dispatched" — trivial moves and pre-dispatch
// configurations — and renders as the empty string, so JSON fields tagged
// omitempty keep the exact schema of the old stringly-typed field.
//
// Positive values are device channels: DeviceLane(i) is channel i and
// renders as "device-<i>". LaneCPU is the host fallback lane.
type Lane int

// Lane values. Device channels are constructed with DeviceLane.
const (
	// LaneNone is the zero value: the job was not dispatched (trivial
	// move, or a store with no scheduler route recorded).
	LaneNone Lane = 0
	// LaneCPU is the host software lane.
	LaneCPU Lane = -1
)

// DeviceLane returns the Lane for device channel i (0-based).
func DeviceLane(i int) Lane { return Lane(i + 1) }

// IsDevice reports whether the lane is a device channel.
func (l Lane) IsDevice() bool { return l > 0 }

// String implements fmt.Stringer, producing the wire strings the events
// and traces always used: "", "cpu", "device-<i>".
func (l Lane) String() string {
	switch {
	case l == LaneNone:
		return ""
	case l == LaneCPU:
		return "cpu"
	default:
		return "device-" + strconv.Itoa(int(l)-1)
	}
}

// MarshalJSON encodes the lane as its wire string.
func (l Lane) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, l.String()), nil
}

// UnmarshalJSON decodes the wire strings produced by MarshalJSON, so
// trace records round-trip through JSONL sinks.
func (l *Lane) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("obs: lane: %w", err)
	}
	switch {
	case s == "":
		*l = LaneNone
	case s == "cpu":
		*l = LaneCPU
	case strings.HasPrefix(s, "device-"):
		i, err := strconv.Atoi(s[len("device-"):])
		if err != nil || i < 0 {
			return fmt.Errorf("obs: bad device lane %q", s)
		}
		*l = DeviceLane(i)
	default:
		return fmt.Errorf("obs: unknown lane %q", s)
	}
	return nil
}

// RouteReason explains why the scheduler routed a job to the CPU lane.
// The zero value (RouteNone) means the job ran on a device and renders
// as the empty string, matching the old stringly-typed field under an
// omitempty JSON tag.
type RouteReason int

// Route reasons, in admission order (paper §VI-A plus the arena and
// saturation rules this implementation adds).
const (
	// RouteNone: no CPU routing — the job completed on a device.
	RouteNone RouteReason = iota
	// RouteNoDevice: the store has no device channels configured.
	RouteNoDevice
	// RouteFanIn: the job's run count exceeds the engine's input width.
	RouteFanIn
	// RouteImageBudget: the serialized input images exceed the device
	// image budget.
	RouteImageBudget
	// RouteArena: the job's input bytes exceed the per-channel
	// device-memory arena, either at admission (sized check) or at run
	// time (the builder exhausted the staging region).
	RouteArena
	// RouteSaturated: no device channel was idle and the wait list was full.
	RouteSaturated
	// RouteDeviceFault: device attempts exhausted the retry budget.
	RouteDeviceFault
)

// String implements fmt.Stringer, producing the wire strings used by
// events, traces and DispatchStats.
func (r RouteReason) String() string {
	switch r {
	case RouteNone:
		return ""
	case RouteNoDevice:
		return "no-device"
	case RouteFanIn:
		return "fanin"
	case RouteImageBudget:
		return "image-budget"
	case RouteArena:
		return "arena"
	case RouteSaturated:
		return "saturated"
	case RouteDeviceFault:
		return "device-fault"
	}
	return "unknown"
}

// MarshalJSON encodes the reason as its wire string.
func (r RouteReason) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, r.String()), nil
}

// UnmarshalJSON decodes the wire strings produced by MarshalJSON.
func (r *RouteReason) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("obs: route reason: %w", err)
	}
	for c := RouteNone; c <= RouteDeviceFault; c++ {
		if c.String() == s {
			*r = c
			return nil
		}
	}
	return fmt.Errorf("obs: unknown route reason %q", s)
}

// Priority is a job's dispatch priority. The zero value is PriorityDeep
// (deep-level compactions); PriorityL0 marks flush-driven L0 jobs, which
// wait for a device channel ahead of deep ones.
type Priority int

// Priorities, low to high.
const (
	// PriorityDeep is the default priority for deep-level compactions.
	PriorityDeep Priority = iota
	// PriorityL0 marks L0/flush-driven jobs that gate foreground writes.
	PriorityL0
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PriorityDeep:
		return "deep"
	case PriorityL0:
		return "l0"
	}
	return "unknown"
}

// MarshalJSON encodes the priority as its string form. Absent fields
// (omitempty) decode as the zero value PriorityDeep.
func (p Priority) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, p.String()), nil
}

// UnmarshalJSON decodes the wire strings produced by MarshalJSON.
func (p *Priority) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("obs: priority: %w", err)
	}
	switch s {
	case "deep":
		*p = PriorityDeep
	case "l0":
		*p = PriorityL0
	default:
		return fmt.Errorf("obs: unknown priority %q", s)
	}
	return nil
}
