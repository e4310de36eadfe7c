package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// declaration is BENCHMARK.json: the one place metric names and units
// are fixed. The benchmark reads it so that it cannot emit a metric the
// file does not declare, or miss one it does.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDeclaration(path string) (*declaration, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func (d *declaration) unit(name string) (string, bool) {
	for _, list := range [][]metricDecl{d.EndToEnd, d.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}

// checkDeclared rejects a measured metric BENCHMARK.json does not name.
func (d *declaration) checkDeclared(metrics map[string]float64) error {
	for _, name := range sortedKeys(metrics) {
		if _, ok := d.unit(name); !ok {
			return fmt.Errorf("metric %q was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// metricValue and result are the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what one run writes to bench/out: every metric it measured,
// the sample counts behind the percentiles, and the stamp that says
// where, from what and how the numbers were made.
type record struct {
	Env         map[string]any        `json:"env"`
	Workload    string                `json:"workload"`
	Catalog     string                `json:"catalog"`
	Seed        int64                 `json:"seed"`
	Seconds     float64               `json:"seconds"`
	Clients     int                   `json:"clients"`
	ElapsedS    float64               `json:"elapsed_s"`
	CommandLine string                `json:"aigd_command_line"`
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	Invalid     string                `json:"invalid,omitempty"`
	Metrics     map[string]float64    `json:"metrics"`
	Samples     map[string]int        `json:"samples,omitempty"`
	LayerTables map[string][]layerRow `json:"layer_tables,omitempty"`
	// Claim is what the run is offered as evidence for. Defining the
	// benchmark claims no gain, so it is always null here.
	Claim *string `json:"claim"`
}

func (r *e2eRun) record() *record {
	return &record{CommandLine: r.commandLine, Attempted: r.attempted, Failed: r.failed,
		Invalid: r.invalid, Metrics: r.metrics, Samples: r.samples}
}

// result picks the declared metrics of one mode, each exactly once.
func (r *record) result(decls []metricDecl) (*result, error) {
	res := &result{Correct: r.Failed == 0 && r.Invalid == "", Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(decls))}
	for _, d := range decls {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured on %s", d.Name, r.Workload)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// print writes every measured metric as "name unit value workload", with
// the sample count and the samples beyond the percentile where there is
// one, so a reader can hold it to the percentile rule.
func (r *record) print(d *declaration) {
	for _, name := range sortedKeys(r.Metrics) {
		unit, _ := d.unit(name)
		line := fmt.Sprintf("%s %s %.6g %s", name, unit, r.Metrics[name], r.Workload)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf(" samples=%d", n)
			if p, ok := percentileOf(name); ok {
				line += fmt.Sprintf(" beyond=%d", samplesBeyond(n, p))
				if n > 0 && !percentileSupported(n, p) {
					line += fmt.Sprintf(" (under the %d-beyond rule; highest supported p%g)", minBeyond, highestSupported(n))
				}
			}
		}
		fmt.Println(line)
	}
	if r.Invalid != "" {
		fmt.Println("INVALID:", r.Invalid)
	}
}

// percentileOf reads the percentile out of a metric name like
// latency_p90_ms.
func percentileOf(name string) (float64, bool) {
	for _, part := range strings.Split(name, "_") {
		var p float64
		if _, err := fmt.Sscanf(part, "p%g", &p); err == nil && p > 0 && p < 100 {
			return p, true
		}
	}
	return 0, false
}

// environment stamps a record: commit, toolchain and machine.
func environment(root string) map[string]any {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"commit":     commit,
		"go_version": runtime.Version(),
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
