// Command recipegen generates the calibrated synthetic RecipeDB corpus
// (the substitute for the paper's non-redistributable 118k-recipe scrape)
// and exports it as CSV or JSON Lines. The Sec. III corpus statistics
// are in cmd/report's output.
//
// Usage:
//
//	recipegen -format csv -o recipes.csv
//	recipegen -format jsonl -scale 0.1 -o sample.jsonl
package main

import (
	"flag"
	"io"
	"log"
	"os"
	"strings"

	"cuisines/internal/corpus"
	"cuisines/internal/recipedb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("recipegen: ")
	var (
		scale   = flag.Float64("scale", 1.0, "corpus scale (fraction of the 118k full corpus)")
		seed    = flag.Uint64("seed", corpus.DefaultSeed, "generator seed")
		format  = flag.String("format", "csv", "output format: csv or jsonl")
		out     = flag.String("o", "-", "output file ('-' for stdout)")
		regions = flag.String("regions", "", "comma-separated region subset (default: all 26)")
		workers = flag.Int("workers", 0, "worker pool size (0 = all cores, 1 = sequential; output is identical)")
	)
	flag.Parse()

	cfg := corpus.Config{Seed: *seed, Scale: *scale, Workers: *workers}
	if *regions != "" {
		for _, r := range strings.Split(*regions, ",") {
			cfg.Regions = append(cfg.Regions, strings.TrimSpace(r))
		}
	}
	db, err := corpus.Generate(cfg)
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
		w = f
	}
	switch *format {
	case "csv":
		err = recipedb.WriteCSV(w, db)
	case "jsonl":
		err = recipedb.WriteJSONL(w, db)
	default:
		log.Fatalf("unknown format %q (want csv or jsonl)", *format)
	}
	if err != nil {
		log.Fatal(err)
	}
}
