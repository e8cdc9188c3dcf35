package main

import (
	"strings"
	"testing"

	"churntomo"
)

func TestConfigFromFlags(t *testing.T) {
	cases := []struct {
		name    string
		scale   string
		seed    uint64
		want    churntomo.Config // compared when wantErr is empty
		wantErr string
	}{
		{name: "unknown scale", scale: "bogus", seed: 1, wantErr: "unknown scale"},
		{name: "seed zero", scale: "small", seed: 0, wantErr: "-seed 0"},
		{name: "small", scale: "small", seed: 7, want: churntomo.SmallConfig()},
		{name: "default", scale: "default", seed: 7, want: churntomo.DefaultConfig()},
		{name: "paper", scale: "paper", seed: 7, want: churntomo.PaperScaleConfig()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := configFromFlags(tc.scale, "chokepoint", tc.seed)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			want.Seed, want.Scenario = tc.seed, "chokepoint"
			if cfg != want {
				t.Fatalf("config = %+v, want %+v", cfg, want)
			}
		})
	}
}
