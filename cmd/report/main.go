// Command report runs the complete evaluation pipeline and writes a
// single self-contained Markdown report: Sec. III corpus statistics,
// the Table I reproduction and its comparison with the published
// values, the Fig. 1 elbow analysis, all five dendrograms with their
// Newick serializations, and the quantified Sec. VII validation. The
// figures come from the same staged pipeline the daemon serves.
//
// Usage:
//
//	report [-scale 1.0] [-seed 0] [-o report.md]
//
// EXPERIMENTS.md is this command's output at full scale and the
// default seed.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"cuisines"
	"cuisines/internal/corpus"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	var (
		scale = flag.Float64("scale", 1.0, "corpus scale")
		seed  = flag.Uint64("seed", 0, "corpus seed (0 = default)")
		out   = flag.String("o", "-", "output file ('-' for stdout)")
	)
	flag.Parse()

	a, err := cuisines.Run(cuisines.Options{Scale: *scale, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		bw := bufio.NewWriter(f)
		defer func() {
			if err := bw.Flush(); err != nil {
				log.Fatal(err)
			}
		}()
		w = bw
	}
	if err := write(w, a, *scale); err != nil {
		log.Fatal(err)
	}
}

func write(w io.Writer, a *cuisines.Analysis, scale float64) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format, args...)
	}
	p("# Hierarchical Clustering of World Cuisines — experiment report\n\n")
	p("Corpus scale: %.2f\n\n", scale)

	st := a.Stats()
	p("## Corpus (Sec. III)\n\n```\n%s```\n\n", st.String())

	p("## Table I — significant patterns per cuisine\n\n```\n%s```\n\n", a.RenderTable())

	var paper strings.Builder
	if err := paperTable(&paper, a.Table()); err != nil {
		return err
	}
	p("## Table I — measured vs published\n\n```\n%s```\n\n", paper.String())

	p("## Fig. 1 — elbow analysis\n\n```\n%s```\n\n", a.ElbowReport())

	for _, f := range cuisines.AllFigures() {
		s, err := a.Dendrogram(f)
		if err != nil {
			return err
		}
		nw, err := a.Newick(f)
		if err != nil {
			return err
		}
		p("## %s\n\n```\n%s%s\n```\n\n", f, s, nw)
	}

	p("## Sec. VII — validation against geography\n\n```\n%s```\n\n", a.RenderValidation())

	p("## Culinary fingerprints (top 5 per cuisine)\n\n")
	for _, region := range a.Regions() {
		fp, err := a.Fingerprint(region, 5)
		if err != nil {
			return err
		}
		p("- **%s**: ", region)
		for i, e := range fp.Most {
			if i > 0 {
				p(", ")
			}
			p("%s (%+.2f)", e.Item, e.Relative)
		}
		p("\n")
	}
	p("\n")
	return nil
}

// paperTable writes each region's measured headline pattern, support
// and pattern count next to the values the paper's Table I publishes.
func paperTable(w io.Writer, rows []cuisines.TableRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Region\tRecipes\tMeasured top\tSupp\t#Pat\tPaper top\tSupp\t#Pat\n")
	for _, row := range rows {
		prof, err := corpus.ProfileFor(row.Region)
		if err != nil {
			return err
		}
		top, sup := "-", "-"
		if len(row.Top) > 0 {
			top = row.Top[0].Pattern
			sup = fmt.Sprintf("%.2f", row.Top[0].Support)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\t%s\t%.2f\t%d\n",
			row.Region, row.Recipes, top, sup, row.Patterns,
			prof.IntendedTop[0], prof.PaperSupport, prof.PaperPatternCount)
	}
	return tw.Flush()
}
