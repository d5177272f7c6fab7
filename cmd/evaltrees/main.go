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
	var (
		support   = flag.Float64("support", core.DefaultMinSupport, "minimum relative support")
		scale     = flag.Float64("scale", 1.0, "corpus scale")
		seed      = flag.Uint64("seed", corpus.DefaultSeed, "corpus generator seed")
		linkage   = flag.String("linkage", core.DefaultLinkage.String(), "linkage method (single|complete|average|weighted|ward)")
		bootstrap = flag.Int("bootstrap", 0, "additionally run N bootstrap replicates of every Sec. VII claim")
		pvalues   = flag.Bool("pvalues", false, "additionally run permutation significance tests of each tree's geography fit")
		kinds     = flag.Bool("kinds", false, "additionally analyze per-kind (ingredient/process/utensil) influence on the cuisine tree")
		pairing   = flag.Bool("pairing", false, "additionally compute the flavor-compound food-pairing statistic per cuisine")
		workers   = flag.Int("workers", 0, "worker pool size (0 = all cores, 1 = sequential; output is identical)")
	)
	flag.Parse()

	method, err := hac.ParseMethod(*linkage)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	p := pipeline.New(nil)
	params := pipeline.Params{
		Seed: *seed, Scale: *scale, MinSupport: *support, Method: method, Workers: *workers,
	}
	res, err := p.Run(ctx, params)
	if err != nil {
		log.Fatal(err)
	}
	db, figs, v := res.DB, res.Figures, res.Validation
	if err := v.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *pvalues {
		fmt.Println("\nPermutation significance of geography fit (Baker's gamma, 1000 permutations):")
		geoCoph := figs.Geo.Tree.Cophenetic()
		for _, ct := range []*core.CuisineTree{figs.Euclidean, figs.Cosine, figs.Jaccard, figs.Auth} {
			res, err := treecmp.PermutationTest(ct.Tree.Cophenetic(), geoCoph, treecmp.BakersGamma, 1000, *seed)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-24s observed %.3f  null %.3f±%.3f  p = %.4f\n",
				ct.Name, res.Observed, res.NullMean, res.NullStd, res.PValue)
		}
	}

	if *kinds {
		fmt.Println("\nPer-kind influence (authenticity tree per item kind — the paper's Sec. VIII question):")
		rows, err := core.AnalyzeKindInfluence(db, figs.Geo, method)
		if err != nil {
			log.Fatal(err)
		}
		if err := core.RenderKindInfluence(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
	}

	if *pairing {
		fmt.Println("\nFlavor-compound food pairing (Ahn et al. delta N_s on the synthetic compound table):")
		if err := flavor.RenderPairing(os.Stdout, flavor.AnalyzeDB(db, *seed)); err != nil {
			log.Fatal(err)
		}
	}

	if *bootstrap > 0 {
		fmt.Printf("\nBootstrap stability (%d replicates):\n", *bootstrap)
		st, err := p.Bootstrap(ctx, params, *bootstrap)
		if err != nil {
			log.Fatal(err)
		}
		if err := st.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if !v.AllClaimsHold() {
		fmt.Println("\nWARNING: not all Sec. VII claims reproduced")
		os.Exit(1)
	}
	fmt.Println("\nAll Sec. VII claims reproduced.")
}
