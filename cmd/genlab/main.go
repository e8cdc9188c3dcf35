// Command genlab generates a measurement dataset in the versioned
// churntomo dataset format (gzipped JSONL with a self-describing header)
// that churnlab -input and churntomo.FileSource analyze without
// regenerating the world — the generation half of the
// export→import→replay workflow. The file always records the world's
// ground truth, so a re-import can validate identifications against it.
// It is also the scenario catalog browser: -list prints every registered
// world-construction preset, -describe explains one.
//
//	genlab -export ds.jsonl.gz [-scale small|default|paper] [-scenario NAME] [-seed N]
//	genlab -list
//	genlab -describe NAME
//
// -scenario selects which preset builds the world the platform measures
// (default paper-baseline). As in churnlab, an unknown -scale or -seed 0
// is a usage error (exit 2), and so is a call with none of -export, -list
// and -describe.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"churntomo"
	"churntomo/internal/report"
)

// configFromFlags turns the generation flags into the Config the world is
// built under. An unknown scale and seed 0 are errors: seed 0 is the
// Config zero value and would silently run under the default seed 1.
func configFromFlags(scale, scenario string, seed uint64) (churntomo.Config, error) {
	sc, err := churntomo.ParseScale(scale)
	if err != nil {
		return churntomo.Config{}, err
	}
	if seed == 0 {
		return churntomo.Config{}, fmt.Errorf("-seed 0 would silently run under the default seed 1; pass a seed >= 1")
	}
	var cfg churntomo.Config
	switch sc {
	case churntomo.ScaleSmall:
		cfg = churntomo.SmallConfig()
	case churntomo.ScaleDefault:
		cfg = churntomo.DefaultConfig()
	case churntomo.ScalePaper:
		cfg = churntomo.PaperScaleConfig()
	}
	cfg.Seed = seed
	cfg.Scenario = scenario
	return cfg, nil
}

// listScenarios prints the preset catalog.
func listScenarios() {
	rows := [][]string{}
	for _, info := range churntomo.Scenarios() {
		rows = append(rows, []string{info.Name, info.Description})
	}
	fmt.Print(report.Table([]string{"Scenario", "Models"}, rows))
	fmt.Println("\nrun `genlab -describe <name>` for the provider composition,")
	fmt.Println("`churnlab -scenario <name>` for a full evaluation under it.")
}

// describeScenario prints one preset's composition.
func describeScenario(name string) error {
	for _, info := range churntomo.Scenarios() {
		if info.Name != name {
			continue
		}
		fmt.Printf("%s — %s\n", info.Name, info.Description)
		fmt.Printf("echoes: %s\n\n", info.Echoes)
		fmt.Print(report.Table([]string{"Axis", "Provider"}, [][]string{
			{"topology", info.Topology},
			{"churn", info.Churn},
			{"censors", info.Censors},
			{"platform", info.Platform},
		}))
		return nil
	}
	// Reuse the library's unknown-name error for the known-names list.
	_, err := churntomo.ScenarioByName(name)
	return err
}

func main() {
	scale := flag.String("scale", "small", "experiment scale: small, default or paper")
	scenarioName := flag.String("scenario", churntomo.ScenarioBaseline, "world-construction preset (see -list)")
	seed := flag.Uint64("seed", 1, "master seed")
	export := flag.String("export", "", "write the generated dataset to this path")
	list := flag.Bool("list", false, "list registered scenario presets and exit")
	describe := flag.String("describe", "", "describe one scenario preset and exit")
	flag.Parse()

	if *list {
		listScenarios()
		return
	}
	if *describe != "" {
		if err := describeScenario(*describe); err != nil {
			fmt.Fprintf(os.Stderr, "genlab: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if *export == "" {
		fmt.Fprintln(os.Stderr, "genlab: nothing to do: pass -export FILE to generate a dataset, or -list or -describe NAME to browse the scenario catalog")
		os.Exit(2)
	}

	cfg, err := configFromFlags(*scale, *scenarioName, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genlab: %v\n", err)
		os.Exit(2)
	}

	// genlab only needs the measured dataset — localization is churnlab's
	// job — so it opens the scenario source directly rather than running
	// a full Experiment.
	d, err := (&churntomo.ScenarioSource{}).Open(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genlab: %v\n", err)
		os.Exit(1)
	}
	records := 0
	for _, day := range d.Days {
		records += len(day)
	}
	if err := d.WriteFile(*export); err != nil {
		fmt.Fprintf(os.Stderr, "genlab: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "genlab: exported %d records under scenario %q to %s\n",
		records, d.Info.Scenario, *export)
}
