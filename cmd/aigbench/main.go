// Command aigbench regenerates the evaluation of §6: Table 1 (dataset
// cardinalities) and Figure 10 (the improvement due to query merging as a
// function of dataset size and recursion-unfolding level).
//
//	aigbench -table1
//	aigbench -fig10 -sizes small,medium,large -levels 2,3,4,5,6,7
//
// For Figure 10, each cell evaluates the hospital AIG σ0 on one report
// date with query merging disabled and enabled, and prints the ratio of
// the two simulated response times (evaluation plus communication at the
// configured bandwidth), exactly as the paper plots. Only communication
// and per-query overheads are simulated; each source query's engine time
// is measured wall time, so a ratio can differ in the second decimal
// between runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/aigrepro/aig/internal/aig"
	"github.com/aigrepro/aig/internal/datagen"
	"github.com/aigrepro/aig/internal/hospital"
	"github.com/aigrepro/aig/internal/mediator"
	"github.com/aigrepro/aig/internal/relstore"
	"github.com/aigrepro/aig/internal/source"
	"github.com/aigrepro/aig/internal/specialize"
	"github.com/aigrepro/aig/internal/sqlmini"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aigbench:", err)
		os.Exit(1)
	}
}

func run() error {
	table1 := flag.Bool("table1", false, "print Table 1 (generated dataset cardinalities)")
	fig10 := flag.Bool("fig10", false, "run the Figure 10 merging experiment (communication and per-query overheads simulated, source engine time measured, so ratios vary in the second decimal)")
	sizesFlag := flag.String("sizes", "small,medium,large", "dataset sizes for -fig10")
	levelsFlag := flag.String("levels", "2,3,4,5,6,7", "unfolding levels for -fig10")
	bandwidth := flag.Float64("bandwidth", 1.0, "simulated bandwidth in Mbps")
	overhead := flag.Float64("overhead", mediator.DefaultNet().QueryOverheadSec, "per-query overhead in seconds")
	seed := flag.Int64("seed", 42, "dataset seed")
	date := flag.String("date", datagen.Date(0), "report date to integrate")
	jsonPath := flag.String("json", "", "also write per-cell results as JSON to this file (e.g. BENCH_1.json)")
	flag.Parse()

	if !*table1 && !*fig10 {
		*table1, *fig10 = true, true
	}
	if *table1 {
		if err := printTable1(*seed); err != nil {
			return err
		}
	}
	if *fig10 {
		return runFig10(*sizesFlag, *levelsFlag, *bandwidth, *overhead, *seed, *date, *jsonPath)
	}
	return nil
}

func printTable1(seed int64) error {
	fmt.Println("Table 1: cardinalities of tables for different datasets")
	fmt.Printf("%-10s %8s %10s %7s %8s %10s %10s\n",
		"", "patient", "visitInfo", "cover", "billing", "treatment", "procedure")
	for _, size := range datagen.Sizes {
		cat := datagen.Generate(size, seed)
		card := func(db, table string) int {
			t, err := cat.Table(db, table)
			if err != nil {
				return -1
			}
			return t.Len()
		}
		fmt.Printf("%-10s %8d %10d %7d %8d %10d %10d\n", size.Name,
			card("DB1", "patient"), card("DB1", "visitInfo"), card("DB2", "cover"),
			card("DB3", "billing"), card("DB4", "treatment"), card("DB4", "procedure"))
	}
	fmt.Println()
	return nil
}

// benchCell is one (size, level) measurement: the Figure 10 ratio plus
// the merged run's real phase timings and counters, for machine-readable
// output and regression tracking.
type benchCell struct {
	Size           string             `json:"size"`
	Level          int                `json:"level"`
	UnmergedSimSec float64            `json:"unmerged_sim_sec"`
	MergedSimSec   float64            `json:"merged_sim_sec"`
	Ratio          float64            `json:"ratio"`
	WallSec        float64            `json:"wall_sec"`
	PhaseSec       map[string]float64 `json:"phase_sec"`
	SourceQueries  int                `json:"source_queries"`
	MergedGroups   int                `json:"merged_groups"`
}

func runFig10(sizesFlag, levelsFlag string, bandwidthMbps, overheadSec float64, seed int64, date, jsonPath string) error {
	var sizes []datagen.Size
	for _, name := range strings.Split(sizesFlag, ",") {
		s, err := datagen.SizeByName(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		sizes = append(sizes, s)
	}
	var levels []int
	for _, l := range strings.Split(levelsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(l))
		if err != nil || n < 1 {
			return fmt.Errorf("bad unfolding level %q", l)
		}
		levels = append(levels, n)
	}

	var cells []benchCell
	fmt.Printf("Figure 10: evaluation-time ratio without/with query merging (%.1f Mbps)\n", bandwidthMbps)
	fmt.Printf("%-10s", "levels:")
	for _, l := range levels {
		fmt.Printf(" %7d", l)
	}
	fmt.Println()
	for _, size := range sizes {
		cat := datagen.Generate(size, seed)
		sa, err := prepare(cat)
		if err != nil {
			return err
		}
		reg := source.RegistryFromCatalog(cat)
		fmt.Printf("%-10s", size.Name)
		for _, level := range levels {
			unf, err := specialize.Unfold(sa, level)
			if err != nil {
				return err
			}
			cell, err := runCell(reg, unf, bandwidthMbps, overheadSec, date)
			if err != nil {
				return err
			}
			cell.Size, cell.Level = size.Name, level
			cells = append(cells, cell)
			fmt.Printf(" %7.2f", cell.Ratio)
		}
		fmt.Println()
	}

	fmt.Println("\nper-cell phase timings of the merged run (wall seconds)")
	fmt.Printf("%-10s %5s %8s %9s %9s %9s %9s %8s %7s\n",
		"size", "level", "wall", "compile", "optimize", "execute", "tag", "queries", "merged")
	for _, c := range cells {
		fmt.Printf("%-10s %5d %8.4f %9.4f %9.4f %9.4f %9.4f %8d %7d\n",
			c.Size, c.Level, c.WallSec, c.PhaseSec["compile"], c.PhaseSec["optimize"],
			c.PhaseSec["execute"], c.PhaseSec["tag"], c.SourceQueries, c.MergedGroups)
	}

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		payload := map[string]any{
			"bandwidth_mbps":     bandwidthMbps,
			"query_overhead_sec": overheadSec,
			"seed":               seed,
			"date":               date,
			"cells":              cells,
		}
		if err := enc.Encode(payload); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func prepare(cat *relstore.Catalog) (*aig.AIG, error) {
	a := hospital.Sigma0(true)
	sa, err := specialize.CompileConstraints(a)
	if err != nil {
		return nil, err
	}
	return specialize.DecomposeQueries(sa,
		sqlmini.CatalogSchemas{Catalog: cat}, sqlmini.CatalogStats{Catalog: cat}, sqlmini.PlanOptions{})
}

// runCell evaluates one (size, level) cell with merging disabled and
// enabled; the merged run additionally contributes its wall-clock phase
// breakdown and query counters.
func runCell(reg *source.Registry, unf *aig.AIG, bandwidthMbps, overheadSec float64, date string) (benchCell, error) {
	var cell benchCell
	for _, merge := range []bool{false, true} {
		opts := mediator.DefaultOptions()
		opts.Merge = merge
		opts.Net.BandwidthBytesPerSec = bandwidthMbps * 125000
		opts.Net.QueryOverheadSec = overheadSec
		m := mediator.New(reg, opts)
		res, err := m.Evaluate(unf, hospital.RootInh(unf, date))
		if err != nil {
			return benchCell{}, err
		}
		if merge {
			cell.MergedSimSec = res.Report.ResponseTimeSec
			cell.WallSec = res.Report.WallSec
			cell.PhaseSec = res.Report.PhaseSec
			cell.SourceQueries = res.Report.SourceQueryCount
			cell.MergedGroups = res.Report.MergedGroups
		} else {
			cell.UnmergedSimSec = res.Report.ResponseTimeSec
		}
	}
	cell.Ratio = cell.UnmergedSimSec / cell.MergedSimSec
	return cell, nil
}
