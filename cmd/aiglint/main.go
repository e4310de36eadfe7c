// Command aiglint checks AIG specification files for the problems the
// static analyses of the paper can find without running the grammar:
// unsatisfiable rule queries, possible non-termination, unreachable
// element types, dead choice branches, unresolved source schemas,
// rule-typing errors, constraints inconsistent with the DTD,
// uncollapsible copy chains, and unused attribute members.
//
// Usage:
//
//	aiglint [-json] [-q] [-errors-only] [-fail-on level] path ...
//
// Each path is a .aig file or a directory searched recursively for
// *.aig files. Diagnostics print one per line as
// file:line:col: severity: message [CODE]; -json emits them as a JSON
// array instead, and -q suppresses output entirely. -errors-only
// restricts output (human or JSON) to error-severity findings.
//
// The exit status is severity-aware: 0 when nothing at or above the
// -fail-on threshold was found (default error, so warnings and infos
// are advisory), 1 when at least one diagnostic reached the threshold,
// and 2 on usage or I/O failure. CI can gate strictly with
// -fail-on warning once a codebase is clean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/aigrepro/aig/internal/aigspec"
	"github.com/aigrepro/aig/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	quiet := flag.Bool("q", false, "suppress output; report via exit status only")
	errorsOnly := flag.Bool("errors-only", false, "report only error-severity diagnostics")
	failOn := flag.String("fail-on", "error", "lowest severity that fails the run: error, warning or info")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: aiglint [-json] [-q] [-errors-only] [-fail-on level] path ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	threshold, err := parseSeverity(*failOn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aiglint: %v\n", err)
		os.Exit(2)
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	files, err := aigspec.Files(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "aiglint: %v\n", err)
		os.Exit(2)
	}
	if len(files) == 0 {
		fmt.Fprintf(os.Stderr, "aiglint: no .aig files found\n")
		os.Exit(2)
	}

	var diags []lint.Diagnostic
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aiglint: %v\n", err)
			os.Exit(2)
		}
		diags = append(diags, lint.Source(f, string(text))...)
	}
	// The exit decision looks at everything found; -errors-only narrows
	// only what is printed.
	failed := atOrAbove(diags, threshold)
	if *errorsOnly {
		kept := diags[:0]
		for _, d := range diags {
			if d.Severity == lint.Error {
				kept = append(kept, d)
			}
		}
		diags = kept
	}

	switch {
	case *quiet:
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{} // render as [], not null
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "aiglint: %v\n", err)
			os.Exit(2)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
			if d.Hint != "" {
				fmt.Printf("\thint: %s\n", d.Hint)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// parseSeverity maps a -fail-on argument to a lint.Severity.
func parseSeverity(s string) (lint.Severity, error) {
	switch s {
	case "error":
		return lint.Error, nil
	case "warning", "warn":
		return lint.Warning, nil
	case "info":
		return lint.Info, nil
	default:
		return 0, fmt.Errorf("-fail-on wants error, warning or info, got %q", s)
	}
}

// atOrAbove reports whether any diagnostic reaches the severity
// threshold.
func atOrAbove(diags []lint.Diagnostic, threshold lint.Severity) bool {
	for _, d := range diags {
		if d.Severity >= threshold {
			return true
		}
	}
	return false
}
