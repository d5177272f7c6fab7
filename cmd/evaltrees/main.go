// Command evaltrees quantifies the paper's Sec. VII validation: every
// cuisine tree (Figs. 2-5) is compared against the geographic tree
// (Fig. 6) with cophenetic correlation, Baker's gamma, Robinson-Foulds
// distance and Fowlkes-Mallows B_k, and the paper's qualitative claims
// (Canada-France over Canada-US; India-North-Africa over India-Thai/SEA;
// Euclidean fits geography best; authenticity at least as good) are
// checked explicitly. The figures come from the same staged pipeline
// (internal/pipeline) the daemon and the report build them with, and
// so do the -bootstrap replicates, which re-check every claim on
// resampled corpora. The exit status depends only on the full data.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/flavor"
	"cuisines/internal/hac"
	"cuisines/internal/pipeline"
	"cuisines/internal/treecmp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evaltrees: ")
	allHold, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	if !allHold {
		os.Exit(1)
	}
}

// run parses args, prints the evaluation to out and reports whether
// every Sec. VII claim held on the full data.
func run(args []string, out io.Writer) (bool, error) {
	fs := flag.NewFlagSet("evaltrees", flag.ExitOnError)
	var (
		support   = fs.Float64("support", core.DefaultMinSupport, "minimum relative support")
		scale     = fs.Float64("scale", 1.0, "corpus scale")
		seed      = fs.Uint64("seed", corpus.DefaultSeed, "corpus generator seed (0 = default)")
		linkage   = fs.String("linkage", core.DefaultLinkage.String(), "linkage method (single|complete|average|weighted|ward)")
		bootstrap = fs.Int("bootstrap", 0, "additionally run N bootstrap replicates of every Sec. VII claim")
		pvalues   = fs.Bool("pvalues", false, "additionally run permutation significance tests of each tree's geography fit")
		kinds     = fs.Bool("kinds", false, "additionally analyze per-kind (ingredient/process/utensil) influence on the cuisine tree")
		pairing   = fs.Bool("pairing", false, "additionally compute the flavor-compound food-pairing statistic per cuisine")
		workers   = fs.Int("workers", 0, "worker pool size (0 = all cores, 1 = sequential; output is identical)")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits here
	// Seed 0 means the default corpus seed everywhere, not only where
	// the pipeline defaults it: the permutation tests and the pairing
	// analysis below take the seed too.
	if *seed == 0 {
		*seed = corpus.DefaultSeed
	}

	method, err := hac.ParseMethod(*linkage)
	if err != nil {
		return false, err
	}
	ctx := context.Background()
	p := pipeline.New(nil)
	params := pipeline.Params{
		Seed: *seed, Scale: *scale, MinSupport: *support, Method: method, Workers: *workers,
	}
	res, err := p.Run(ctx, params)
	if err != nil {
		return false, err
	}
	figs, v := res.Figures, res.Validation
	if err := v.Render(out); err != nil {
		return false, err
	}

	if *pvalues {
		fmt.Fprintln(out, "\nPermutation significance of geography fit (Baker's gamma, 1000 permutations):")
		geoCoph := figs.Geo.Tree.Cophenetic()
		for _, ct := range []*core.CuisineTree{figs.Euclidean, figs.Cosine, figs.Jaccard, figs.Auth} {
			res, err := treecmp.PermutationTest(ct.Tree.Cophenetic(), geoCoph, treecmp.BakersGamma, 1000, *seed)
			if err != nil {
				return false, err
			}
			fmt.Fprintf(out, "  %-24s observed %.3f  null %.3f±%.3f  p = %.4f\n",
				ct.Name, res.Observed, res.NullMean, res.NullStd, res.PValue)
		}
	}

	if *kinds {
		fmt.Fprintln(out, "\nPer-kind influence (authenticity tree per item kind — the paper's Sec. VIII question):")
		db, err := res.DB(ctx)
		if err != nil {
			return false, err
		}
		rows, err := core.AnalyzeKindInfluence(db, figs.Geo, method)
		if err != nil {
			return false, err
		}
		if err := core.RenderKindInfluence(out, rows); err != nil {
			return false, err
		}
	}

	if *pairing {
		fmt.Fprintln(out, "\nFlavor-compound food pairing (Ahn et al. delta N_s on the synthetic compound table):")
		db, err := res.DB(ctx)
		if err != nil {
			return false, err
		}
		if err := flavor.RenderPairing(out, flavor.AnalyzeDB(db, *seed)); err != nil {
			return false, err
		}
	}

	if *bootstrap > 0 {
		fmt.Fprintf(out, "\nBootstrap stability (%d replicates):\n", *bootstrap)
		st, err := p.Bootstrap(ctx, params, *bootstrap)
		if err != nil {
			return false, err
		}
		if err := st.Render(out); err != nil {
			return false, err
		}
	}

	if !v.AllClaimsHold() {
		fmt.Fprintln(out, "\nWARNING: not all Sec. VII claims reproduced")
		return false, nil
	}
	fmt.Fprintln(out, "\nAll Sec. VII claims reproduced.")
	return true, nil
}
