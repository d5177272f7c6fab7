package hac

import (
	"fmt"
	"sort"
	"strings"
)

// RenderOptions controls ASCII dendrogram rendering.
type RenderOptions struct {
	// Width is the number of character columns for the distance axis
	// (default 60).
	Width int
	// ShowScale appends a numeric axis line (default true via Render).
	ShowScale bool
}

// ASCII renders the dendrogram horizontally, one leaf per line, joints at
// columns proportional to merge height — the textual analogue of the
// paper's Fig. 2-6 plots. Labels are right-padded; the distance axis grows
// to the right.
func (t *Tree) ASCII(opts RenderOptions) string {
	width := opts.Width
	if width <= 0 {
		width = 60
	}
	order := t.LeafOrder()
	row := make(map[int]int, len(order)) // observation -> display row
	labelW := 0
	for i, leaf := range order {
		row[leaf] = i
		if l := len(t.Label(leaf)); l > labelW {
			labelW = l
		}
	}
	maxH := 0.0
	var scan func(n *Node)
	scan = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		if n.Height > maxH {
			maxH = n.Height
		}
		scan(n.Left)
		scan(n.Right)
	}
	scan(t.Root)
	col := func(h float64) int {
		if maxH == 0 {
			return 0
		}
		c := int(h / maxH * float64(width-1))
		if c < 0 {
			c = 0
		}
		if c > width-1 {
			c = width - 1
		}
		return c
	}

	// A joint may sit up to one column per tree level past width (see
	// draw), so rows get that much slack; trailing blanks are trimmed.
	grid := make([][]rune, len(order))
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width+len(order)))
	}

	// attach marks that a horizontal stem continues rightward from an
	// internal child's joint glyph.
	attach := func(r, c int) {
		switch grid[r][c] {
		case '┐':
			grid[r][c] = '┬'
		case '┘':
			grid[r][c] = '┴'
		case '│':
			grid[r][c] = '├'
		}
	}

	// draw returns (row, col) where the subtree attaches: an internal
	// node's joint column, or -1 for a leaf, whose stem starts at 0.
	var draw func(n *Node) (int, int)
	draw = func(n *Node) (int, int) {
		if n.IsLeaf() {
			return row[n.Leaf], -1
		}
		lr, lc := draw(n.Left)
		rr, rc := draw(n.Right)
		// A joint sits right of its children's joints even when their
		// heights round to one column; sharing it would fuse connectors.
		c := max(col(n.Height), lc+1, rc+1)
		// Horizontal stems from each child to the joint column, starting
		// after an internal child's own joint glyph.
		drawStem := func(r, from int) {
			if from >= 0 {
				attach(r, from)
			}
			for x := from + 1; x < c; x++ {
				if grid[r][x] == ' ' {
					grid[r][x] = '─'
				}
			}
		}
		drawStem(lr, lc)
		drawStem(rr, rc)
		top, bot := lr, rr
		if top > bot {
			top, bot = bot, top
		}
		// Vertical connector.
		grid[top][c] = '┐'
		grid[bot][c] = '┘'
		for y := top + 1; y < bot; y++ {
			if grid[y][c] == '─' {
				grid[y][c] = '┼'
			} else if grid[y][c] == ' ' {
				grid[y][c] = '│'
			}
		}
		mid := (top + bot) / 2
		return mid, c
	}
	if t.n > 1 {
		draw(t.Root)
	}

	var b strings.Builder
	for i, leaf := range order {
		fmt.Fprintf(&b, "%-*s ", labelW, t.Label(leaf))
		b.WriteString(strings.TrimRight(string(grid[i]), " "))
		b.WriteByte('\n')
	}
	if opts.ShowScale && maxH > 0 {
		b.WriteString(strings.Repeat(" ", labelW+1))
		b.WriteString(scaleLine(width, maxH))
		b.WriteByte('\n')
	}
	return b.String()
}

// Render renders with default options including the scale.
func (t *Tree) Render() string {
	return t.ASCII(RenderOptions{ShowScale: true})
}

func scaleLine(width int, maxH float64) string {
	// Five ticks: 0, .25, .5, .75, 1 of maxH.
	line := []rune(strings.Repeat("─", width))
	var b strings.Builder
	ticks := 4
	for i := 0; i <= ticks; i++ {
		pos := i * (width - 1) / ticks
		line[pos] = '┬'
	}
	b.WriteString(string(line))
	b.WriteByte('\n')
	labels := make([]string, ticks+1)
	for i := 0; i <= ticks; i++ {
		labels[i] = trimFloat(maxH * float64(i) / float64(ticks))
	}
	// Lay out tick labels approximately under their ticks.
	out := []rune(strings.Repeat(" ", width+8))
	for i, lab := range labels {
		pos := i * (width - 1) / ticks
		for j, r := range lab {
			if pos+j < len(out) {
				out[pos+j] = r
			}
		}
	}
	b.WriteString(strings.TrimRight(string(out), " "))
	return b.String()
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%.2f", f)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Newick serializes the tree in Newick format with branch lengths derived
// from merge heights (parent height minus child height), suitable for any
// external tree viewer.
func (t *Tree) Newick() string {
	var b strings.Builder
	var walk func(n *Node, parentH float64)
	walk = func(n *Node, parentH float64) {
		if n.IsLeaf() {
			b.WriteString(escapeNewick(t.Label(n.Leaf)))
			fmt.Fprintf(&b, ":%.6g", parentH)
			return
		}
		b.WriteByte('(')
		walk(n.Left, n.Height-childHeight(n.Left))
		b.WriteByte(',')
		walk(n.Right, n.Height-childHeight(n.Right))
		b.WriteByte(')')
		if parentH >= 0 {
			fmt.Fprintf(&b, ":%.6g", parentH)
		}
	}
	if t.Root.IsLeaf() {
		b.WriteString(escapeNewick(t.Label(t.Root.Leaf)))
	} else {
		walk(t.Root, -1)
	}
	b.WriteByte(';')
	return b.String()
}

func childHeight(n *Node) float64 {
	if n.IsLeaf() {
		return 0
	}
	return n.Height
}

func escapeNewick(label string) string {
	if strings.ContainsAny(label, " (),:;'") {
		return "'" + strings.ReplaceAll(label, "'", "''") + "'"
	}
	return label
}

// Describe returns a compact textual summary of the merges, useful in
// logs and golden tests: each line "height: {leaves-left} + {leaves-right}".
func (t *Tree) Describe() string {
	type rec struct {
		h    float64
		line string
	}
	var recs []rec
	var leaves func(n *Node) []string
	leaves = func(n *Node) []string {
		if n.IsLeaf() {
			return []string{t.Label(n.Leaf)}
		}
		return append(leaves(n.Left), leaves(n.Right)...)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		l := leaves(n.Left)
		r := leaves(n.Right)
		sort.Strings(l)
		sort.Strings(r)
		recs = append(recs, rec{n.Height, fmt.Sprintf("%.4g: {%s} + {%s}", n.Height, strings.Join(l, ","), strings.Join(r, ","))})
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].h != recs[j].h {
			return recs[i].h < recs[j].h
		}
		return recs[i].line < recs[j].line
	})
	lines := make([]string, len(recs))
	for i, r := range recs {
		lines[i] = r.line
	}
	return strings.Join(lines, "\n")
}
