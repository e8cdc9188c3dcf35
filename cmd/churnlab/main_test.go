package main

import (
	"strings"
	"testing"
)

func TestFlagConflicts(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name     string
		explicit map[string]bool
		matrix   int
		stream   bool
		only     string
		input    string
		eval     bool
		want     []string // substrings of expected conflict messages; empty = none
	}{
		{name: "defaults", explicit: set(), matrix: 1},
		{name: "stream alone", explicit: set("stream"), matrix: 1, stream: true},
		{name: "matrix alone", explicit: set("matrix"), matrix: 4},
		{name: "stream with window/stride", explicit: set("stream", "window", "stride"), matrix: 1, stream: true},
		{
			name: "stream and matrix", explicit: set("stream", "matrix"), matrix: 4, stream: true,
			want: []string{"mutually exclusive"},
		},
		{
			name: "window without stream", explicit: set("window"), matrix: 1,
			want: []string{"-window/-stride require -stream"},
		},
		{
			name: "stride without stream", explicit: set("stride"), matrix: 1,
			want: []string{"-window/-stride require -stream"},
		},
		{
			name: "matrix zero", explicit: set("matrix"), matrix: 0,
			want: []string{"must be >= 1"},
		},
		{
			name: "only in matrix mode", explicit: set("matrix", "only"), matrix: 3, only: "table1",
			want: []string{"-only", "-matrix"},
		},
		{
			name: "only in stream mode", explicit: set("stream", "only"), matrix: 1, stream: true, only: "table1",
			want: []string{"-only", "-stream"},
		},
		{
			name: "explicit validate in matrix mode", explicit: set("matrix", "validate"), matrix: 3,
			want: []string{"-validate", "-matrix"},
		},
		{
			// -validate defaults to true; only a user-supplied value conflicts.
			name: "default validate in matrix mode", explicit: set("matrix"), matrix: 3,
		},
		{name: "input alone", explicit: set("input"), matrix: 1, input: "ds.jsonl.gz"},
		{
			// Replaying a recorded dataset through the streaming engine is
			// the supported workflow, not a conflict.
			name: "input with stream", explicit: set("input", "stream", "window"), matrix: 1,
			stream: true, input: "ds.jsonl.gz",
		},
		{
			name: "input with seed", explicit: set("input", "seed"), matrix: 1, input: "ds.jsonl.gz",
			want: []string{"-seed", "-input"},
		},
		{
			name: "input with scale and scenario", explicit: set("input", "scale", "scenario"), matrix: 1, input: "ds.jsonl.gz",
			want: []string{"-scale", "-scenario", "-input"},
		},
		{
			name: "input with matrix", explicit: set("input", "matrix"), matrix: 4, input: "ds.jsonl.gz",
			want: []string{"-matrix", "same file every cell"},
		},
		{name: "eval alone", explicit: set("eval"), matrix: 1, eval: true},
		{
			// Streaming evaluation adds the convergence-day report.
			name: "eval with stream", explicit: set("eval", "stream"), matrix: 1, stream: true, eval: true,
		},
		{
			// Replayed datasets that kept their registry are gradable; the
			// metadata-only case fails at runtime, not at flag parse.
			name: "eval with input", explicit: set("eval", "input"), matrix: 1, input: "ds.jsonl.gz", eval: true,
		},
		{
			name: "eval with matrix", explicit: set("eval", "matrix"), matrix: 4, eval: true,
			want: []string{"-eval", "-matrix"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := flagConflicts(tc.explicit, tc.matrix, tc.stream, tc.only, tc.input, tc.eval)
			if len(tc.want) == 0 {
				if len(got) > 0 {
					t.Fatalf("unexpected conflicts: %v", got)
				}
				return
			}
			joined := strings.Join(got, "\n")
			for _, w := range tc.want {
				if !strings.Contains(joined, w) {
					t.Errorf("conflicts %q missing %q", joined, w)
				}
			}
		})
	}
}
