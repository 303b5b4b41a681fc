// Paperrepro regenerates every table and figure of the paper's
// evaluation, printing paper-style output. Experiments (see DESIGN.md §5
// for the index):
//
//	table1   §VI statistics table (A, B=A+I, A⊗A, A⊗B) + timing      [E1,E10]
//	fig7     nine egonets of two products, degrees + triangle counts [E2]
//	ex1      Ex. 1(a)-(c) clique closed forms                        [E3]
//	ex2      Ex. 2 hub-cycle edge histogram and truss structure      [E4]
//	thm3     truss ground-truth generation with Δ_B ≤ 1              [E5]
//	census   directed (Thm. 4/5) and labeled (Thm. 6/7) censuses     [E6,E7]
//	degrees  §III.A degree distributions and max-ratio squaring      [E8]
//	rem1     stochastic Kronecker (R-MAT) vs nonstochastic triangles [E9]
//	power    k-fold Kronecker powers ([3]'s construction)            [extension]
//	all      everything above
//
// Usage: paperrepro -exp table1 -n 32768
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
)

// Default flag values; the golden test runs the experiments at these.
const (
	defaultN    = 1 << 14
	defaultSeed = 2018
)

// experiments maps each id to its experiment, and order is the sequence
// "all" runs them in.
var (
	experiments = map[string]func(*report, int, uint64){
		"table1":  expTable1,
		"fig7":    expFig7,
		"ex1":     expEx1,
		"ex2":     expEx2,
		"thm3":    expThm3,
		"census":  expCensus,
		"degrees": expDegrees,
		"rem1":    expRem1,
		"power":   expPower,
	}
	order = []string{"table1", "fig7", "ex1", "ex2", "thm3", "census", "degrees", "rem1", "power"}
)

// report is where an experiment prints its tables and records its
// checks: each comparison of a closed form with a direct count or with
// the paper's printed value goes through check.
type report struct {
	w      io.Writer
	failed []string
}

// check records the outcome of the named check and returns ok, for the
// experiment to print.
func (r *report) check(name string, ok bool) bool {
	if !ok {
		r.failed = append(r.failed, name)
	}
	return ok
}

func (r *report) printf(format string, a ...any) { fmt.Fprintf(r.w, format, a...) }
func (r *report) println(a ...any)               { fmt.Fprintln(r.w, a...) }

// runAll runs every experiment in order, each under a header line.
func runAll(r *report, n int, seed uint64) {
	for _, id := range order {
		r.printf("================ %s ================\n", id)
		experiments[id](r, n, seed)
		r.println()
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperrepro: ")
	exp := flag.String("exp", "all", "experiment id (table1 fig7 ex1 ex2 thm3 census degrees rem1 power all)")
	n := flag.Int("n", defaultN, "web-factor vertices for the large experiments")
	seed := flag.Uint64("seed", defaultSeed, "generator seed")
	flag.Parse()

	r := &report{w: os.Stdout}
	if *exp == "all" {
		runAll(r, *n, *seed)
	} else if f, ok := experiments[*exp]; ok {
		f(r, *n, *seed)
	} else {
		log.Printf("unknown experiment %q; available: %v all", *exp, order)
		os.Exit(2)
	}
	if len(r.failed) > 0 {
		log.Printf("failed checks (%d): %s", len(r.failed), strings.Join(r.failed, "; "))
		os.Exit(1)
	}
}
