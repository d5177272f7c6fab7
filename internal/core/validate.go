package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"cuisines/internal/treecmp"
)

// Validation quantifies the Sec. VII claims. The paper validates its
// cuisine trees against geography by inspection; here every tree is
// compared to the geographic tree with cophenetic correlation, Baker's
// gamma, Robinson-Foulds and Fowlkes-Mallows B_k, and the two headline
// anecdotes (Canada-France vs Canada-US, India-North-Africa vs
// India-Southeast-Asia) are checked as cophenetic inequalities.
type Validation struct {
	// TreeFit holds, per candidate tree, its similarity to geography.
	TreeFit []TreeFit
	// Claims holds the anecdote checks.
	Claims []Claim
}

// TreeFit is one tree's geography-similarity report.
type TreeFit struct {
	Name   string
	Report *treecmp.Report
}

// Claim is a verifiable qualitative statement from Sec. VII.
type Claim struct {
	Name string
	// Tree the claim was evaluated on.
	Tree string
	// Detail is a human-readable explanation with the measured numbers.
	Detail string
	Holds  bool
}

// Validate runs the full Sec. VII analysis over built figures.
func Validate(f *Figures) (*Validation, error) {
	v := &Validation{}
	candidates := []*CuisineTree{f.Euclidean, f.Cosine, f.Jaccard, f.Auth}
	for _, c := range candidates {
		rep, err := treecmp.Compare(c.Tree, f.Geo.Tree, []int{4, 8})
		if err != nil {
			return nil, fmt.Errorf("core: comparing %s to geography: %w", c.Name, err)
		}
		v.TreeFit = append(v.TreeFit, TreeFit{Name: c.Name, Report: rep})
	}

	// Claim 1 (paper): among the pattern trees, the Euclidean one
	// resembles geography the most. Evaluated on Baker's gamma — the
	// rank-based statistic is the fair cross-metric comparator, since the
	// three metrics put cophenetic heights on incomparable scales.
	best := bestFit(v.TreeFit[:3])
	v.Claims = append(v.Claims, Claim{
		Name:   "euclidean-closest-to-geography",
		Tree:   "patterns",
		Detail: fitDetail(v.TreeFit[:3]),
		Holds:  best == "patterns-euclidean",
	})

	// Claim 2 (paper): authenticity clustering gives "similar yet better
	// results than Euclidean distance-based HAC". Evaluated on cophenetic
	// correlation against the raw geographic distances — the canonical
	// dendrogram-fit statistic. (On Baker's gamma the euclidean pattern
	// tree is ahead; EXPERIMENTS.md's Sec. VII table reports both.)
	authFit := v.TreeFit[3].Report.Cophenetic
	eucFit := v.TreeFit[0].Report.Cophenetic
	v.Claims = append(v.Claims, Claim{
		Name:   "authenticity-at-least-as-good",
		Tree:   "authenticity-euclidean",
		Detail: fmt.Sprintf("authenticity cophenetic r %.3f vs euclidean pattern tree %.3f", authFit, eucFit),
		Holds:  authFit >= eucFit,
	})

	// Claim 3 (paper): "both techniques predict a closer relationship
	// among Canadian and French cuisines as compared to Canadian and US
	// cuisines despite their geographical proximity."
	for _, ct := range []*CuisineTree{f.Euclidean, f.Auth} {
		claim, err := copheneticCloser(ct, "Canadian", "French", "US")
		if err != nil {
			return nil, err
		}
		claim.Name = "canada-closer-to-france-than-us"
		v.Claims = append(v.Claims, claim)
	}

	// Claim 4 (paper): "Indian subcontinent cuisine is closer to African
	// cuisine as compared to its geographical neighbors like Thai and
	// Southeast Asian cuisines."
	for _, ct := range []*CuisineTree{f.Euclidean, f.Auth} {
		for _, neighbor := range []string{"Thai", "Southeast Asian"} {
			claim, err := copheneticCloser(ct, "Indian Subcontinent", "Northern Africa", neighbor)
			if err != nil {
				return nil, err
			}
			claim.Name = "india-closer-to-north-africa-than-" + strings.ReplaceAll(strings.ToLower(neighbor), " ", "-")
			v.Claims = append(v.Claims, claim)
		}
	}
	return v, nil
}

// copheneticCloser builds a claim that a is closer to b than to c in the
// tree (by cophenetic merge height).
func copheneticCloser(ct *CuisineTree, a, b, c string) (Claim, error) {
	hab, err := ct.Tree.MergeHeightBetween(a, b)
	if err != nil {
		return Claim{}, err
	}
	hac, err := ct.Tree.MergeHeightBetween(a, c)
	if err != nil {
		return Claim{}, err
	}
	return Claim{
		Tree:   ct.Name,
		Detail: fmt.Sprintf("coph(%s, %s) = %.3f vs coph(%s, %s) = %.3f", a, b, hab, a, c, hac),
		Holds:  hab < hac,
	}, nil
}

func bestFit(fits []TreeFit) string {
	best, bestGamma := "", -2.0
	for _, f := range fits {
		if f.Report.BakersGamma > bestGamma {
			best, bestGamma = f.Name, f.Report.BakersGamma
		}
	}
	return best
}

func fitDetail(fits []TreeFit) string {
	parts := make([]string, len(fits))
	for i, f := range fits {
		parts[i] = fmt.Sprintf("%s gamma=%.3f coph=%.3f", f.Name, f.Report.BakersGamma, f.Report.Cophenetic)
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

// Render writes the validation as a readable report.
func (v *Validation) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Tree\tCophenetic r\tBaker's gamma\tRF dist\tB_4\tB_8")
	for _, f := range v.TreeFit {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			f.Name, f.Report.Cophenetic, f.Report.BakersGamma, f.Report.RobinsonFoulds,
			f.Report.Bk(4), f.Report.Bk(8))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w)
	for _, c := range v.Claims {
		status := "HOLDS"
		if !c.Holds {
			status = "FAILS"
		}
		if _, err := fmt.Fprintf(w, "[%s] %s (%s): %s\n", status, c.Name, c.Tree, c.Detail); err != nil {
			return err
		}
	}
	return nil
}

// AllClaimsHold reports whether every Sec. VII claim was reproduced.
func (v *Validation) AllClaimsHold() bool {
	for _, c := range v.Claims {
		if !c.Holds {
			return false
		}
	}
	return true
}
