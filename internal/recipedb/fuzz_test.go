package recipedb

import (
	"strings"
	"testing"

	"cuisines/internal/itemset"
)

// The ingestion fuzz targets lock two properties over arbitrary input:
// the readers never panic, and every rejection names where the problem
// is — a specific line for row-level failures, or the header. CI runs
// them for a short fixed budget on every push (see ci.yml); longer
// local runs: go test -fuzz=FuzzReadCSV ./internal/recipedb.

// locatedError reports whether an ingestion error points the caller at
// the offending input: a line number, or the header phase.
func locatedError(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "line ") || strings.Contains(msg, "header")
}

// TestReadCSVLineNumbersSpanQuotedNewlines: quoted fields may contain
// newlines, so error positions must come from the reader's physical
// line tracking, not a record counter.
func TestReadCSVLineNumbersSpanQuotedNewlines(t *testing.T) {
	in := "id,name,region,ingredients,processes,utensils\n" +
		"r1,\"Two\nLine\",French,beef,,\n" + // record 1 spans physical lines 2-3
		"r1,Dup,French,beef,,\n" // physical line 4: duplicate ID
	_, err := ReadCSV(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("want error naming line 4, got: %v", err)
	}
}

func FuzzReadCSV(f *testing.F) {
	f.Add("id,name,region,ingredients,processes,utensils\nr1,Stew,French,beef|wine,simmer,pot\n")
	f.Add("id,name,region,ingredients,processes,utensils\nr1,,French,beef,,\nr1,,French,beef,,\n") // duplicate ID
	f.Add("id,name,region,ingredients,processes,utensils\nr1,Stew,,beef,,\n")                      // empty region
	f.Add("id,name,region,ingredients,processes,utensils\nr1,Stew,French,,,\n")                    // no ingredients
	f.Add("id,name,region,ingredients,processes,utensils\n\"r1,Stew\n")                            // unterminated quote
	f.Add("id,name,region,ingredients,processes,utensils\nr1,Stew,French,beef,simmer\n")           // short row
	f.Add("id,name,region,ingredients,processes,utensils\nr1,Stew,French,beef| |,\u00a0,\n")       // blank names
	f.Add("bogus,header\n")
	f.Add("id,name,region,ingredients,processes,utensils\nr1,S,French," + strings.Repeat("x|", 500) + "y,,\n")
	f.Fuzz(func(t *testing.T, data string) {
		db, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			if !locatedError(err) {
				t.Fatalf("error does not locate the problem: %v", err)
			}
			return
		}
		checkAccepted(t, db)
	})
}

func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"id":"r1","name":"Stew","region":"French","ingredients":["beef","wine"]}` + "\n")
	f.Add(`{"id":"r1","region":"French","ingredients":["beef"]}` + "\n" + `{"id":"r1","region":"French","ingredients":["beef"]}` + "\n")
	f.Add(`{"id":"r1","region":"","ingredients":["beef"]}` + "\n")                // empty region
	f.Add(`{"id":"r1","region":"French"}` + "\n")                                 // no ingredients
	f.Add(`{"id":"a","region":"X","ingredients":["  "],"processes":[""]}` + "\n") // blank names
	f.Add("{not json}\n")
	f.Add("\n\n" + `{"id":"r1","region":"French","ingredients":["beef"]}` + "\n\n")
	f.Add(`{"id":"r1","region":"French","ingredients":["` + strings.Repeat("x", 2000) + `"]}` + "\n")
	f.Fuzz(func(t *testing.T, data string) {
		db, err := ReadJSONL(strings.NewReader(data))
		if err != nil {
			if !locatedError(err) {
				t.Fatalf("error does not locate the problem: %v", err)
			}
			return
		}
		checkAccepted(t, db)
	})
}

// checkAccepted holds an accepted database to structural validity, and
// every item name in it to a non-blank canonical form, so no reader
// lets an item named "" into the vocabulary.
func checkAccepted(t *testing.T, db *DB) {
	t.Helper()
	for i := 0; i < db.Len(); i++ {
		r := db.Recipe(i)
		if verr := r.Validate(); verr != nil {
			t.Fatalf("accepted invalid recipe %d: %v", i, verr)
		}
		for _, names := range [][]string{r.Ingredients, r.Processes, r.Utensils} {
			for _, name := range names {
				if itemset.CanonicalName(name) == "" {
					t.Fatalf("accepted recipe %d with blank item name %q", i, name)
				}
			}
		}
	}
}
