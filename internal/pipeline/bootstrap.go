package pipeline

import (
	"context"
	"fmt"
	"strconv"

	"cuisines/internal/artifact"
	"cuisines/internal/core"
	"cuisines/internal/recipedb"
	"cuisines/internal/rng"
)

// Bootstrap measures how robust every Sec. VII claim is under
// bootstrap resampling of the recipes. Replicate b resamples each
// region of Run's corpus with replacement and runs the stage graph from
// the corpus key boot(corpusKey, round=b) (DESIGN.md §8), so it is
// scored by the same Validate, on trees linked with pr.Method, as the
// headline claims. Support counts each "<claim>/<tree>" over the
// iters replicates.
func (p *Pipeline) Bootstrap(ctx context.Context, pr Params, iters int) (*core.Stability, error) {
	pr = withDefaults(pr)
	db, corpusKey, err := p.corpus(ctx, pr)
	if err != nil {
		return nil, err
	}
	r := rng.New(pr.Seed)
	held := make(map[string]int)
	for b := 0; b < iters; b++ {
		// Fork every round, hit or miss, so replicate b's draws never
		// depend on which earlier replicates the store already held.
		rb := r.Fork()
		bootKey := artifact.Key("boot", corpusKey, fmt.Sprintf("round=%d", b))
		boot, err := stage(ctx, p.store, bootKey, corpusCodec, func() (*recipedb.DB, error) {
			return resample(db, rb, b)
		})
		if err != nil {
			return nil, err
		}
		res, err := p.runFrom(ctx, boot, bootKey, pr)
		if err != nil {
			return nil, err
		}
		for _, c := range res.Validation.Claims {
			k, n := c.Name+"/"+c.Tree, 0
			if c.Holds {
				n = 1
			}
			held[k] += n
		}
	}
	st := &core.Stability{Iterations: iters, Support: make(map[string]float64, len(held))}
	for k, n := range held {
		st.Support[k] = float64(n) / float64(iters)
	}
	return st, nil
}

// resample draws each region's recipes with replacement, preserving
// region sizes. Recipe IDs are re-minted to stay unique.
func resample(db *recipedb.DB, r *rng.RNG, round int) (*recipedb.DB, error) {
	out := make([]recipedb.Recipe, 0, db.Len())
	prefix := "boot" + strconv.Itoa(round) + "-"
	for _, region := range db.Regions() {
		rs := db.RegionRecipes(region)
		for i := range rs {
			cp := *rs[r.Intn(len(rs))]
			cp.ID = prefix + cp.ID + "-" + strconv.Itoa(i)
			out = append(out, cp)
		}
	}
	return recipedb.New(out)
}
