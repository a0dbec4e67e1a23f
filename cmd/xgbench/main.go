// Command xgbench regenerates the paper's tables and figures.
//
// Usage:
//
//	xgbench                  # run every experiment in quick mode
//	xgbench -full            # paper-scale (32k vocab, larger workloads)
//	xgbench -exp fig9,tab3   # run a subset
//	xgbench -markdown        # emit EXPERIMENTS.md-style markdown
//
// Experiment ids: fig9 fig10 fig11 fig12 tab1 tab2 tab3 tab4 stats par. The
// par experiment reports the parallel mask-cache build speedup over the
// serial preprocessing scan. Every table carries a "clock:" note naming
// which columns are wall-clock measurements and which come from llmsim's
// modelled accelerator profile; the serving stack is measured by bench/
// (see the root README), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xgrammar/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "paper-scale run (32k vocab; several minutes)")
	exps := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	markdown := flag.Bool("markdown", false, "emit markdown instead of aligned text")
	vocab := flag.Int("vocab", 0, "override vocabulary size")
	flag.Parse()

	suite := experiments.NewSuite(!*full)
	if *vocab > 0 {
		suite.Vocab = *vocab
	}
	mode := "quick"
	if *full {
		mode = "full"
	}
	fmt.Fprintf(os.Stderr, "xgbench: %s mode, vocab=%d (tokenizer training is cached per process)\n", mode, suite.Vocab)

	var tables []*experiments.Table
	if *exps == "all" {
		start := time.Now()
		tables = suite.All()
		fmt.Fprintf(os.Stderr, "xgbench: all experiments in %v\n", time.Since(start))
	} else {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(id)
			tb, ok := suite.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "xgbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			tables = append(tables, tb)
		}
	}
	for _, tb := range tables {
		if *markdown {
			fmt.Println(tb.Markdown())
		} else {
			fmt.Println(tb.String())
		}
	}
}
