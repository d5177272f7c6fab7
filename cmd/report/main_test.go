package main

import (
	"fmt"
	"strings"
	"testing"

	"cuisines"
	"cuisines/internal/corpus"
)

// section returns the body of the report section headed "## title",
// up to the next section header.
func section(t *testing.T, report, title string) string {
	t.Helper()
	_, body, ok := strings.Cut(report, "\n## "+title+"\n")
	if !ok {
		t.Fatalf("report has no %q section", title)
	}
	body, _, _ = strings.Cut(body, "\n## ")
	return body
}

func TestReportCarriesNewickAndPaperTable(t *testing.T) {
	a, err := cuisines.Run(cuisines.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := write(&b, a, 0.05); err != nil {
		t.Fatal(err)
	}
	report := b.String()

	for _, f := range cuisines.AllFigures() {
		body := section(t, report, f.String())
		dendro, err := a.Dendrogram(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(body, dendro) {
			t.Errorf("%s: section lacks its dendrogram", f)
		}
		nw, err := a.Newick(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(body, "\n"+nw+"\n") {
			t.Errorf("%s: section has no Newick line equal to %q", f, nw)
		}
	}

	body := section(t, report, "Table I — measured vs published")
	var rows []string
	for _, line := range strings.Split(body, "\n")[3:] { // blank, fence, header
		if line == "```" {
			break
		}
		rows = append(rows, line)
	}
	regions := a.Regions()
	if len(rows) != len(regions) {
		t.Fatalf("paper table has %d rows, want one per region (%d):\n%s", len(rows), len(regions), body)
	}
	for i, region := range regions {
		prof, err := corpus.ProfileFor(region)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%.2f  %d", prof.PaperSupport, prof.PaperPatternCount)
		if !strings.HasPrefix(rows[i], region+" ") || !strings.HasSuffix(strings.TrimRight(rows[i], " "), want) {
			t.Errorf("row %d = %q, want region %q ending in published %q", i, rows[i], region, want)
		}
	}
}
