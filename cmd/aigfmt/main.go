// Command aigfmt parses AIG specifications and prints them back in
// canonical form (gofmt for the aigspec language):
//
//	aigfmt report.aig            # print the canonical form
//	aigfmt -w report.aig         # rewrite the file in place
//	aigfmt -l specs/             # list files whose formatting differs
//
// Each path is a .aig file or a directory searched recursively for
// *.aig files. Parsing alone catches syntax errors; formatting
// normalizes member ordering and SQL layout. With -l the exit status is
// 1 when any file is not in canonical form (for CI gating) and 0
// otherwise; parse and I/O failures exit 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/aigrepro/aig/internal/aigspec"
)

func main() {
	write := flag.Bool("w", false, "rewrite files in place")
	list := flag.Bool("l", false, "list files whose formatting differs; exit 1 if any do")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: aigfmt [-l] [-w] path ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	files, err := aigspec.Files(flag.Args())
	if err != nil {
		fail(err)
	}
	if len(files) == 0 {
		fail(fmt.Errorf("no .aig files found"))
	}

	differs := false
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		a, err := aigspec.Parse(string(data))
		if err != nil {
			fail(fmt.Errorf("%s: %v", path, err))
		}
		out, err := aigspec.Format(a)
		if err != nil {
			fail(fmt.Errorf("%s: %v", path, err))
		}
		switch {
		case *list:
			if out != string(data) {
				differs = true
				fmt.Println(path)
			}
		case *write:
			if out != string(data) {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					fail(err)
				}
			}
		default:
			fmt.Print(out)
		}
	}
	if *list && differs {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "aigfmt:", err)
	os.Exit(2)
}
