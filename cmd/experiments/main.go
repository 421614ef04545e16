// Command experiments regenerates the reproduction's tables and figures
// (E1–E13, see DESIGN.md §3 and EXPERIMENTS.md):
//
//	experiments                       # run everything at the default sizes
//	experiments -e e4,e5              # only the main theorem and the separation
//	experiments -e e11                # dynamic networks: sensitivity + churn
//	experiments -sizes 16,128         # custom n sweep
//	experiments -e e13 -sizes 1024,1000000
//	                                  # hierarchical frontier up to n = 10⁶
//
// The experiments panic on the checks they make (E13, for instance, on
// an inexact decode or a family with no tier ≤ 0.5× its flat snapshot).
// Performance is measured by the end-to-end benchmark in bench/, not
// here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mstadvice/internal/experiments"
)

func main() {
	var (
		which    = flag.String("e", "all", "comma-separated experiment ids (e1..e13) or 'all'")
		sizes    = flag.String("sizes", "", "comma-separated n sweep (default 16,64,256,1024)")
		families = flag.String("families", "", "comma-separated families (default path,grid,random,expander)")
		seed     = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	cfg := experiments.Config{Seed: *seed}
	if *sizes != "" {
		for _, part := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fail("bad size %q", part)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	if *families != "" {
		cfg.Families = strings.Split(*families, ",")
	}
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}

	ids := experiments.IDs()
	if *which != "all" {
		ids = strings.Split(*which, ",")
	}
	reg := experiments.Registry()
	for _, id := range ids {
		id = strings.TrimSpace(strings.ToLower(id))
		run, ok := reg[id]
		if !ok {
			fail("unknown experiment %q (have %s)", id, strings.Join(experiments.IDs(), ","))
		}
		for _, table := range run(cfg) {
			if _, err := table.WriteTo(os.Stdout); err != nil {
				fail("%v", err)
			}
			fmt.Println()
		}
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(2)
}
