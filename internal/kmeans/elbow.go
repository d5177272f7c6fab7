package kmeans

import (
	"fmt"
	"io"
	"math"
	"strings"

	"cuisines/internal/matrix"
	"cuisines/internal/parallel"
)

// ElbowPoint is one (k, WCSS) sample of the elbow curve.
type ElbowPoint struct {
	K    int
	WCSS float64
}

// ElbowCurve is the Fig. 1 analysis: WCSS for k = 1..KMax plus the
// curvature-based elbow diagnostic.
type ElbowCurve struct {
	Points []ElbowPoint
	// ElbowK is the k with maximal discrete curvature (second
	// difference of normalized WCSS); 0 if the curve has fewer than three
	// points.
	ElbowK int
	// ElbowStrength is that curvature relative to the total WCSS drop, in
	// [0, 1]-ish units. Low values mean "no sharp elbow" — the paper's
	// Fig. 1 conclusion.
	ElbowStrength float64
}

// Elbow runs k-means for k = 1..kMax and assembles the elbow curve. The k
// values are evaluated concurrently (Options.Workers); each k derives its
// own seed, so the curve is identical to the sequential sweep and stable
// under kMax changes.
func Elbow(x *matrix.Dense, kMax int, opts Options) (*ElbowCurve, error) {
	if kMax < 1 {
		return nil, fmt.Errorf("kmeans: kMax must be >= 1")
	}
	if kMax > x.Rows() {
		kMax = x.Rows()
	}
	points, err := parallel.MapErr(kMax, opts.Workers, func(i int) (ElbowPoint, error) {
		k := i + 1
		o := opts
		o.Seed = opts.Seed*1000003 + uint64(k)
		res, err := Run(x, k, o)
		if err != nil {
			return ElbowPoint{}, err
		}
		return ElbowPoint{K: k, WCSS: res.WCSS}, nil
	})
	if err != nil {
		return nil, err
	}
	return NewElbowCurve(points), nil
}

// NewElbowCurve assembles a curve from its points and derives the
// elbow diagnostic from them, as Elbow does; the elbow artifact's
// decoder rebuilds a stored curve through it.
func NewElbowCurve(points []ElbowPoint) *ElbowCurve {
	c := &ElbowCurve{Points: points}
	n := len(points)
	if n < 3 {
		return c
	}
	total := points[0].WCSS - points[n-1].WCSS
	if total <= 0 {
		return c
	}
	for i := 1; i < n-1; i++ {
		curv := (points[i-1].WCSS - 2*points[i].WCSS + points[i+1].WCSS) / total
		if curv > c.ElbowStrength {
			c.ElbowK, c.ElbowStrength = points[i].K, curv
		}
	}
	return c
}

// Sharp reports whether the curve has a pronounced elbow. The paper's
// Fig. 1 finds none on the cuisine features; the threshold is the
// documented convention this repository uses for that judgement (three
// clean synthetic blobs score ~0.37, featureless noise scores < 0.15).
func (c *ElbowCurve) Sharp() bool { return c.ElbowStrength >= 0.3 }

// Render writes an ASCII rendition of Fig. 1: WCSS bars against k.
func (c *ElbowCurve) Render(w io.Writer) error {
	if len(c.Points) == 0 {
		return nil
	}
	max := 0.0
	for _, p := range c.Points {
		if p.WCSS > max {
			max = p.WCSS
		}
	}
	for _, p := range c.Points {
		width := 0
		if max > 0 {
			width = int(math.Round(p.WCSS / max * 50))
		}
		if _, err := fmt.Fprintf(w, "k=%-3d %10.2f %s\n", p.K, p.WCSS, strings.Repeat("#", width)); err != nil {
			return err
		}
	}
	verdict := "no sharp elbow (matches the paper's Fig. 1 finding)"
	if c.Sharp() {
		verdict = fmt.Sprintf("sharp elbow at k=%d", c.ElbowK)
	}
	_, err := fmt.Fprintf(w, "max curvature at k=%d (strength %.3f): %s\n", c.ElbowK, c.ElbowStrength, verdict)
	return err
}
