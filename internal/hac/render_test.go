package hac

import (
	"strings"
	"testing"

	"cuisines/internal/distance"
)

// golden layout for a fixed 4-leaf tree; guards the renderer against
// regressions in joint placement.
func TestASCIIGolden(t *testing.T) {
	// Points on a line: 0, 1, 10, 12 (average linkage).
	c := distance.NewCondensed(4)
	c.Set(0, 1, 1)
	c.Set(0, 2, 10)
	c.Set(0, 3, 12)
	c.Set(1, 2, 9)
	c.Set(1, 3, 11)
	c.Set(2, 3, 2)
	lk, err := Cluster(c, Average)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(lk, []string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	out := tree.ASCII(RenderOptions{Width: 20, ShowScale: false})
	// Verified layout: {a,b} join at the left, the parent stem leaves
	// the top of their connector; {c,d} join further right and meet the
	// root at the far column.
	want := strings.Join([]string{
		"a ─┬─────────────────┐",
		"b ─┘                 │",
		"c ───┬───────────────┘",
		"d ───┘",
		"",
	}, "\n")
	if out != want {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestNewickQuoting(t *testing.T) {
	c := distance.NewCondensed(2)
	c.Set(0, 1, 1)
	lk, _ := Cluster(c, Single)
	tree, _ := BuildTree(lk, []string{"it's", "plain"})
	nw := tree.Newick()
	if !strings.Contains(nw, "'it''s'") {
		t.Fatalf("apostrophe not escaped: %q", nw)
	}
}

func TestRenderSingleLeaf(t *testing.T) {
	lk, _ := Cluster(distance.NewCondensed(1), Average)
	tree, _ := BuildTree(lk, []string{"only"})
	out := tree.Render()
	if !strings.Contains(out, "only") {
		t.Fatalf("single leaf render: %q", out)
	}
	if nw := tree.Newick(); nw != "only;" {
		t.Fatalf("single leaf newick: %q", nw)
	}
}

// TestASCIIParentNeverSharesChildJoint pins the fig6-geographic case:
// Scandinavian joins the Iberian/British/French cluster at 1719.96 km
// and that cluster joins Eastern European's at 1804.6 km. At width 60
// under a 10854.48 km root both heights fall in column 9; the parent's
// joint must still land right of the child's, so no connector is left
// attached to nothing.
func TestASCIIParentNeverSharesChildJoint(t *testing.T) {
	labels := []string{
		"Eastern European", "Greek", "Italian", "Scandinavian",
		"Spanish and Portuguese", "Irish", "UK", "French",
		"Belgian", "Deutschland", "Australian",
	}
	lk := &Linkage{N: len(labels), Method: Average, Merges: []Merge{
		{A: 5, B: 6, Height: 381, Size: 2},         // 11 Irish+UK
		{A: 8, B: 9, Height: 418.98, Size: 2},      // 12 Belgian+Deutschland
		{A: 7, B: 12, Height: 623.448, Size: 3},    // 13 French+12
		{A: 1, B: 2, Height: 874.657, Size: 2},     // 14 Greek+Italian
		{A: 11, B: 13, Height: 949.742, Size: 5},   // 15
		{A: 0, B: 14, Height: 1231.72, Size: 3},    // 16 Eastern European+14
		{A: 4, B: 15, Height: 1400.41, Size: 6},    // 17 Spanish+15
		{A: 3, B: 17, Height: 1719.96, Size: 7},    // 18 Scandinavian+17
		{A: 16, B: 18, Height: 1804.6, Size: 10},   // 19
		{A: 10, B: 19, Height: 10854.48, Size: 11}, // 20 root
	}}
	tree, err := BuildTree(lk, labels)
	if err != nil {
		t.Fatal(err)
	}
	out := tree.ASCII(RenderOptions{})
	assertConnected(t, out, len(labels[4]))
}

// TestASCIIConnectedProperty renders trees with many ties and narrow
// widths, where merges crowd into the same column, and checks every
// connector glyph still joins its neighbours.
func TestASCIIConnectedProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		n := 3 + int(seed%9)
		c := distance.NewCondensed(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				c.Set(i, j, float64((int64(i*7+j*13)+seed)%5)) // heavy ties, some zeros
			}
		}
		for _, m := range []Method{Single, Complete, Average, Weighted, Ward} {
			lk, err := Cluster(c, m)
			if err != nil {
				t.Fatal(err)
			}
			labels := make([]string, n)
			for i := range labels {
				labels[i] = string(rune('a' + i))
			}
			tree, err := BuildTree(lk, labels)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 5, 60} {
				assertConnected(t, tree.ASCII(RenderOptions{Width: w}), 1)
			}
		}
	}
}

// assertConnected checks a rendered dendrogram's box-drawing glyphs:
// every arm of every glyph must meet a glyph with the opposite arm,
// except a leaf stem's left end at the label. A row ending in a `┐` or
// `┘` that no vertical continues is exactly such an unmatched arm.
func assertConnected(t *testing.T, out string, labelW int) {
	t.Helper()
	type arms struct{ left, right, up, down bool }
	glyph := map[rune]arms{
		'─': {left: true, right: true},
		'│': {up: true, down: true},
		'┐': {left: true, down: true},
		'┘': {left: true, up: true},
		'┬': {left: true, right: true, down: true},
		'┴': {left: true, right: true, up: true},
		'├': {up: true, down: true, right: true},
		'┼': {left: true, right: true, up: true, down: true},
	}
	var grid [][]rune
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		r := []rune(line)
		grid = append(grid, r[labelW+1:])
	}
	at := func(y, x int) arms {
		if y < 0 || y >= len(grid) || x < 0 || x >= len(grid[y]) {
			return arms{}
		}
		return glyph[grid[y][x]]
	}
	for y, row := range grid {
		for x, ch := range row {
			a, ok := glyph[ch]
			if !ok {
				continue
			}
			bad := (a.right && !at(y, x+1).left) ||
				(a.left && x > 0 && !at(y, x-1).right) ||
				(a.down && !at(y+1, x).up) ||
				(a.up && !at(y-1, x).down)
			if bad {
				t.Fatalf("glyph %q at row %d col %d is not connected:\n%s", ch, y, x, out)
			}
		}
	}
}
