// Command genlab generates a measurement dataset. With -export it writes
// the versioned churntomo dataset format (gzipped JSONL with a
// self-describing header) that churnlab -input and churntomo.FileSource
// analyze without regenerating the world — the generation half of the
// export→import→replay workflow. Without -export it prints legacy JSON
// lines (one record per line) to stdout for offline analysis with
// external tools. It is also the scenario catalog browser: -list prints
// every registered world-construction preset, -describe explains one.
//
//	genlab -export ds.jsonl.gz [-scale small|default|paper] [-scenario NAME] [-seed N]
//	genlab [-scale small|default|paper] [-scenario NAME] [-seed N] [-truth] > records.jsonl
//	genlab -list
//	genlab -describe NAME
//
// Without -truth, ground-truth fields are stripped from the legacy stdout
// export, producing exactly what a real platform would publish (-export
// always records the world's ground truth so a re-import can validate
// identifications against it). -scenario selects which preset builds the
// world the platform measures (default paper-baseline). As in churnlab,
// an unknown -scale or -seed 0 is a usage error (exit 2).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"churntomo"
	"churntomo/internal/report"
)

// exportRecord is the JSON shape of one measurement.
type exportRecord struct {
	ID             int32    `json:"id"`
	Vantage        uint32   `json:"vantage_asn"`
	VantageCountry string   `json:"vantage_country"`
	URL            string   `json:"url"`
	Category       string   `json:"category"`
	At             string   `json:"at"`
	Anomalies      []string `json:"anomalies,omitempty"`
	ASPath         []uint32 `json:"as_path,omitempty"`
	Fail           string   `json:"path_fail,omitempty"`

	TruePath    []uint32 `json:"true_path,omitempty"`
	TrueCensors []uint32 `json:"true_censors,omitempty"`
}

// exportRecordOf renders one measurement in the legacy stdout shape. id is
// the record's position in day order, which identifies it.
func exportRecordOf(id int32, m *churntomo.Measurement, truth bool) exportRecord {
	out := exportRecord{
		ID:             id,
		Vantage:        uint32(m.Vantage),
		VantageCountry: m.VantageCountry,
		URL:            m.URL,
		Category:       m.Category.String(),
		At:             m.At.Format("2006-01-02T15:04:05Z"),
	}
	for _, k := range m.Anomalies.Members() {
		out.Anomalies = append(out.Anomalies, k.String())
	}
	if m.Fail == churntomo.PathOK {
		for _, a := range m.ASPath {
			out.ASPath = append(out.ASPath, uint32(a))
		}
	} else {
		out.Fail = m.Fail.String()
	}
	if truth {
		for _, a := range m.TruePath {
			out.TruePath = append(out.TruePath, uint32(a))
		}
		for _, act := range m.TrueActs {
			out.TrueCensors = append(out.TrueCensors, uint32(act.ASN))
		}
	}
	return out
}

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
	truth := flag.Bool("truth", false, "include ground-truth fields in the legacy stdout export")
	export := flag.String("export", "", "write the versioned dataset format to this path instead of legacy JSON lines on stdout")
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

	if *export != "" {
		if err := d.WriteFile(*export); err != nil {
			fmt.Fprintf(os.Stderr, "genlab: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "genlab: exported %d records under scenario %q to %s\n",
			records, d.Info.Scenario, *export)
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	enc := json.NewEncoder(w)
	var id int32
	for _, day := range d.Days {
		for i := range day {
			if err := enc.Encode(exportRecordOf(id, &day[i], *truth)); err != nil {
				fmt.Fprintf(os.Stderr, "genlab: %v\n", err)
				os.Exit(1)
			}
			id++
		}
	}
	fmt.Fprintf(os.Stderr, "genlab: wrote %d records under scenario %q\n",
		records, d.Info.Scenario)
}
