package churntomo

// This file is the experiment's observability surface: a typed Event
// stream. Observers registered with WithObserver receive one Event per
// pipeline stage, per streamed day, per emitted window and per finished
// matrix cell; TextObserver renders the stream as the progress lines
// churnlab prints to stderr.

import (
	"fmt"
	"io"
)

// Stage identifies which part of an experiment an Event reports on.
type Stage int

// The stages, in the order a batch cell emits them. Streaming cells emit
// StageDay/StageWindow instead of StageSolve; matrix runs additionally
// emit one StageCell per finished cell.
const (
	StageTopology Stage = iota // AS graph generated
	StageTimeline              // churn timeline generated
	StageCensors               // censor policies placed
	StageIPASMap               // historical IP-to-AS database built
	StageScenario              // vantages and URLs selected
	StageMeasure               // measurement platform starting
	StageSolve                 // batch CNF build+solve starting
	StageDay                   // one day ingested by the streaming localizer
	StageWindow                // one streaming window localized
	StageCell                  // one matrix cell finished
	StageLoad                  // a recorded dataset being loaded from a Source
)

// String returns a stable lower-case stage name.
func (s Stage) String() string {
	switch s {
	case StageTopology:
		return "topology"
	case StageTimeline:
		return "timeline"
	case StageCensors:
		return "censors"
	case StageIPASMap:
		return "ipasmap"
	case StageScenario:
		return "scenario"
	case StageMeasure:
		return "measure"
	case StageSolve:
		return "solve"
	case StageDay:
		return "day"
	case StageWindow:
		return "window"
	case StageCell:
		return "cell"
	case StageLoad:
		return "load"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// EventStats carries the numbers attached to an Event. Only the fields
// relevant to the event's Stage are populated; Seed is always set.
type EventStats struct {
	// Seed is the cell's master seed (the base seed outside matrix mode).
	Seed uint64
	// ASes/Countries describe the topology (StageTopology).
	ASes, Countries int
	// Days is the measurement window length (StageTimeline).
	Days int
	// Vantages/URLs describe the platform scenario (StageScenario).
	Vantages, URLs int
	// CNFs counts constructed CNFs (StageWindow, StageCell).
	CNFs int
	// Censors counts identified censors (StageWindow, StageCell).
	Censors int
	// Solved/Reused split a window's incremental work (StageWindow).
	Solved, Reused int
	// StartDay/EndDay are a window's inclusive day range (StageWindow).
	StartDay, EndDay int
}

// Event is one observation of a running experiment.
type Event struct {
	Stage Stage
	// Cell is the matrix cell index the event belongs to, or -1 outside
	// matrix mode.
	Cell int
	// Day is the day ordinal for StageDay events, -1 otherwise.
	Day int
	// Window is the window ordinal for StageWindow events, -1 otherwise.
	Window int
	// Source labels the dataset origin of a StageLoad event (a file
	// path, a Source's Label), "" otherwise.
	Source string
	// Stats holds the stage-specific numbers.
	Stats EventStats
	// Err is the failure of a StageCell event whose cell errored, nil
	// otherwise. (A failed single-cell run surfaces its error from Run
	// directly, not through the event stream.)
	Err error
}

// newEvent returns an Event with the index fields at their "not
// applicable" sentinels.
func newEvent(stage Stage) Event {
	return Event{Stage: stage, Cell: -1, Day: -1, Window: -1}
}

// Observer receives experiment events. Observers are invoked synchronously
// and serialized — even when matrix cells run concurrently, at most one
// observer call is in flight at a time — so they need no locking of their
// own; slow observers stall the pipeline.
type Observer func(Event)

// TextObserver renders the event stream as line-per-stage progress text.
// Per-stage lines from concurrent matrix cells would interleave, so
// inside a matrix only the per-cell completion lines are rendered.
func TextObserver(w io.Writer) Observer {
	return func(ev Event) {
		if ev.Cell >= 0 && ev.Stage != StageCell {
			return
		}
		switch ev.Stage {
		case StageTopology:
			fmt.Fprintf(w, "generating topology (%d ASes, %d countries)\n", ev.Stats.ASes, ev.Stats.Countries)
		case StageTimeline:
			fmt.Fprintf(w, "generating churn timeline (%d days)\n", ev.Stats.Days)
		case StageCensors:
			fmt.Fprintln(w, "placing censors")
		case StageIPASMap:
			fmt.Fprintln(w, "building historical IP-to-AS database")
		case StageScenario:
			fmt.Fprintf(w, "selecting %d vantages and %d URLs\n", ev.Stats.Vantages, ev.Stats.URLs)
		case StageMeasure:
			fmt.Fprintln(w, "running measurement platform")
		case StageLoad:
			fmt.Fprintf(w, "loading dataset from %s\n", ev.Source)
		case StageSolve:
			fmt.Fprintln(w, "building and solving CNFs")
		case StageWindow:
			fmt.Fprintf(w, "window %d [day %d..%d]: %d CNFs (%d solved, %d reused), %d censors\n",
				ev.Window, ev.Stats.StartDay, ev.Stats.EndDay,
				ev.Stats.CNFs, ev.Stats.Solved, ev.Stats.Reused, ev.Stats.Censors)
		case StageCell:
			if ev.Err != nil {
				fmt.Fprintf(w, "matrix cell %d (seed %d): %v\n", ev.Cell, ev.Stats.Seed, ev.Err)
			} else {
				fmt.Fprintf(w, "matrix cell %d (seed %d): %d censors, %d CNFs\n",
					ev.Cell, ev.Stats.Seed, ev.Stats.Censors, ev.Stats.CNFs)
			}
		}
	}
}
