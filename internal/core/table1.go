package core

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table1Row is one Table I line: a region, its size, its headline
// patterns and its frequent-pattern count.
type Table1Row struct {
	Region   string
	Recipes  int
	Top      []ScoredPattern
	Patterns int
}

// Table1 is the full reproduction of Table I, built by
// BuildPatternFeatures.
type Table1 struct {
	MinSupport float64
	Rows       []Table1Row
}

// Render writes the table in the paper's column layout.
func (t *Table1) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Region\tRecipes\tPattern\tSupport\tPatterns\n")
	for _, row := range t.Rows {
		top := "-"
		sup := "-"
		if len(row.Top) > 0 {
			top = row.Top[0].Pattern.Items.String()
			sup = fmt.Sprintf("%.2f", row.Top[0].Pattern.Support)
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\n", row.Region, row.Recipes, top, sup, row.Patterns)
		for _, extra := range row.Top[min(1, len(row.Top)):] {
			fmt.Fprintf(tw, "\t\t%s\t%.2f\t\n", extra.Pattern.Items.String(), extra.Pattern.Support)
		}
	}
	return tw.Flush()
}

// String renders the table to a string.
func (t *Table1) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}
