package hac

import (
	"fmt"
	"sort"
)

// Node is one node of a dendrogram. Leaves have Left == Right == nil and
// carry the observation index in Leaf; internal nodes carry the merge
// height.
type Node struct {
	// ID is the scipy cluster id: 0..n-1 for leaves, n+i for the i-th
	// merge.
	ID int
	// Leaf is the observation index for leaves, -1 for internal nodes.
	Leaf int
	// Height is the merge distance (0 for leaves).
	Height float64
	// Count is the number of leaves under this node.
	Count int
	Left  *Node
	Right *Node
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a rooted dendrogram over n named observations.
type Tree struct {
	Root   *Node
	Labels []string // observation index -> label; may be nil
	n      int
}

// BuildTree converts a linkage into an explicit dendrogram tree. labels
// may be nil or must have length n.
func BuildTree(lk *Linkage, labels []string) (*Tree, error) {
	if labels != nil && len(labels) != lk.N {
		return nil, fmt.Errorf("hac: %d labels for %d observations", len(labels), lk.N)
	}
	nodes := make(map[int]*Node, 2*lk.N)
	for i := 0; i < lk.N; i++ {
		nodes[i] = &Node{ID: i, Leaf: i, Count: 1}
	}
	for i, m := range lk.Merges {
		l, ok1 := nodes[m.A]
		r, ok2 := nodes[m.B]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("hac: merge %d references unknown cluster (%d, %d)", i, m.A, m.B)
		}
		nodes[lk.N+i] = &Node{
			ID:     lk.N + i,
			Leaf:   -1,
			Height: m.Height,
			Count:  l.Count + r.Count,
			Left:   l,
			Right:  r,
		}
		delete(nodes, m.A)
		delete(nodes, m.B)
	}
	if len(nodes) != 1 {
		return nil, fmt.Errorf("hac: linkage does not form a single tree (%d roots)", len(nodes))
	}
	var root *Node
	//lint:allow mapiter single-entry map (len(nodes) == 1 checked above), so every order yields the same root
	for _, v := range nodes {
		root = v
	}
	return &Tree{Root: root, Labels: labels, n: lk.N}, nil
}

// Merges reconstructs the linkage merge list from the node graph, in
// scipy order: internal node n+i is the i-th merge. BuildTree is
// deterministic in this list, so BuildTree of the merges and labels
// renders, cuts and serializes (Newick) byte-identically to t; the
// pipeline's tree artifact stores a tree in this form.
func (t *Tree) Merges() ([]Merge, error) {
	out := make([]Merge, t.n-1)
	seen := 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n == nil || n.IsLeaf() {
			return nil
		}
		i := n.ID - t.n
		if i < 0 || i >= len(out) {
			return fmt.Errorf("hac: internal node id %d out of merge range for n=%d", n.ID, t.n)
		}
		out[i] = Merge{A: n.Left.ID, B: n.Right.ID, Height: n.Height, Size: n.Count}
		seen++
		if err := walk(n.Left); err != nil {
			return err
		}
		return walk(n.Right)
	}
	if err := walk(t.Root); err != nil {
		return nil, err
	}
	if seen != len(out) {
		return nil, fmt.Errorf("hac: tree has %d merges, want %d", seen, len(out))
	}
	return out, nil
}

// N returns the number of observations.
func (t *Tree) N() int { return t.n }

// Label returns the label of observation i, falling back to its index.
func (t *Tree) Label(i int) string {
	if t.Labels != nil && i >= 0 && i < len(t.Labels) {
		return t.Labels[i]
	}
	return fmt.Sprintf("#%d", i)
}

// LeafOrder returns observation indices in dendrogram display order
// (depth-first, left branch first — scipy's default leaf ordering).
func (t *Tree) LeafOrder() []int {
	var order []int
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			order = append(order, n.Leaf)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return order
}

// CutHeight assigns observations to clusters by cutting all merges with
// Height > h. The result maps observation index -> cluster number
// (0-based, numbered by smallest member).
func (t *Tree) CutHeight(h float64) []int {
	assign := make([]int, t.n)
	for i := range assign {
		assign[i] = -1
	}
	cluster := 0
	var walk func(n *Node, inCluster bool)
	walk = func(n *Node, inCluster bool) {
		if n == nil {
			return
		}
		if !inCluster && (n.IsLeaf() || n.Height <= h) {
			// This whole subtree is one cluster.
			c := cluster
			cluster++
			var mark func(m *Node)
			mark = func(m *Node) {
				if m == nil {
					return
				}
				if m.IsLeaf() {
					assign[m.Leaf] = c
					return
				}
				mark(m.Left)
				mark(m.Right)
			}
			mark(n)
			return
		}
		walk(n.Left, false)
		walk(n.Right, false)
	}
	walk(t.Root, false)
	return renumberBySmallest(assign)
}

// CutK cuts the tree into exactly k clusters (1 <= k <= n) by undoing the
// k-1 highest merges.
func (t *Tree) CutK(k int) ([]int, error) {
	if k < 1 || k > t.n {
		return nil, fmt.Errorf("hac: cannot cut %d observations into %d clusters", t.n, k)
	}
	// Collect internal node heights, cut below the (k-1)-th largest.
	var heights []float64
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil || n.IsLeaf() {
			return
		}
		heights = append(heights, n.Height)
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	if k == 1 {
		out := make([]int, t.n)
		return out, nil
	}
	sort.Float64s(heights)
	// Cut strictly below the (k-1) largest merge heights. With ties this
	// can produce more than k clusters, matching scipy's fcluster
	// 'maxclust' best-effort semantics.
	threshold := heights[len(heights)-(k-1)]
	return t.CutHeight(nextBelow(threshold)), nil
}

// nextBelow returns the largest float64 strictly less than x.
func nextBelow(x float64) float64 {
	if x <= 0 {
		return -1e-300
	}
	return x * (1 - 1e-15)
}

// renumberBySmallest renumbers cluster ids so that the cluster containing
// the smallest observation index gets 0, the next new cluster 1, etc.
func renumberBySmallest(assign []int) []int {
	remap := make(map[int]int)
	next := 0
	out := make([]int, len(assign))
	for i, c := range assign {
		if nc, ok := remap[c]; ok {
			out[i] = nc
		} else {
			remap[c] = next
			out[i] = next
			next++
		}
	}
	return out
}

// Heights returns all merge heights in merge order.
func (lk *Linkage) Heights() []float64 {
	hs := make([]float64, len(lk.Merges))
	for i, m := range lk.Merges {
		hs[i] = m.Height
	}
	return hs
}

// IsMonotone reports whether merge heights are non-decreasing — guaranteed
// for single, complete, average and ward (reducible methods), and a
// property tests assert.
func (lk *Linkage) IsMonotone() bool {
	for i := 1; i < len(lk.Merges); i++ {
		if lk.Merges[i].Height < lk.Merges[i-1].Height-1e-12 {
			return false
		}
	}
	return true
}
