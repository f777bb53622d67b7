// Command clustersim reproduces the paper's tables and figures on the
// simulated substrate: the Section 4 reliability model (table1), the
// failure trace (fig1) and the Section 5 cluster experiments.
//
// Usage:
//
//	clustersim -exp <id>|all [-files n]
//
// The ids are those of experiments.Reports; -h lists them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+strings.Join(ids(), ", ")+", all")
	files := flag.Int("files", 200, "files for the EC2 experiments")
	flag.Parse()

	if err := run(os.Stdout, *exp, *files); err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(1)
	}
}

// ids lists every accepted experiment id in table order.
func ids() []string {
	var out []string
	for _, r := range experiments.Reports {
		out = append(out, r.IDs...)
	}
	return out
}

// run renders the report named exp, or every report for "all".
func run(w io.Writer, exp string, files int) error {
	ran := false
	for _, r := range experiments.Reports {
		if exp != "all" && !slices.Contains(r.IDs, exp) {
			continue
		}
		if err := r.Render(w, files); err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want one of %s, all)", exp, strings.Join(ids(), ", "))
	}
	return nil
}
