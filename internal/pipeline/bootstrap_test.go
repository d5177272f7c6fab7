package pipeline

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"cuisines/internal/artifact"
	"cuisines/internal/core"
	"cuisines/internal/corpus"
	"cuisines/internal/hac"
)

// claimRows is one bootstrap row per claim Validate checks.
const claimRows = 8

func bootstrap(t *testing.T, p *Pipeline, pr Params, iters int) *core.Stability {
	t.Helper()
	st, err := p.Bootstrap(context.Background(), pr, iters)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != iters {
		t.Fatalf("iterations = %d, want %d", st.Iterations, iters)
	}
	if len(st.Support) != claimRows {
		t.Fatalf("support entries = %d, want %d: %v", len(st.Support), claimRows, st.Support)
	}
	for k, v := range st.Support {
		if v < 0 || v > 1 {
			t.Fatalf("support %s = %v", k, v)
		}
	}
	return st
}

func TestBootstrapClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is slow")
	}
	pr := testParams(core.DefaultLinkage, 0)
	pr.Scale = 0.1
	st := bootstrap(t, New(nil), pr, 5)
	// The India spice-belt signal is strong enough to survive tenth-scale
	// resampling; the Canada margin is narrower (evaltrees -bootstrap N
	// reports full-scale stability) so it only needs to appear at all
	// here.
	if k := "india-closer-to-north-africa-than-thai/authenticity-euclidean"; st.Support[k] < 0.6 {
		t.Errorf("claim %s bootstrap support only %.2f", k, st.Support[k])
	}
	if k := "canada-closer-to-france-than-us/authenticity-euclidean"; st.Support[k] == 0 {
		t.Errorf("claim %s never held in any replicate", k)
	}
	var b strings.Builder
	if err := st.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Bootstrap support (n=5)") {
		t.Fatalf("render:\n%s", b.String())
	}
}

// TestBootstrapKeepsAnecdoteHoldRates pins the six claim/tree rows the
// bootstrap reported before it ran on the stage graph (then a separate
// mine → pdist → tree chain that re-checked only claims 3-4): at the
// default linkage the replicate draws and the trees are the same, so
// the hold-rates are too.
func TestBootstrapKeepsAnecdoteHoldRates(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is slow")
	}
	st := bootstrap(t, New(nil), Params{Seed: corpus.DefaultSeed, Scale: 0.05, Method: core.DefaultLinkage}, 3)
	want := map[string]float64{
		"canada-closer-to-france-than-us/authenticity-euclidean":                   2.0 / 3,
		"canada-closer-to-france-than-us/patterns-euclidean":                       1,
		"india-closer-to-north-africa-than-southeast-asian/authenticity-euclidean": 1,
		"india-closer-to-north-africa-than-southeast-asian/patterns-euclidean":     1,
		"india-closer-to-north-africa-than-thai/authenticity-euclidean":            1,
		"india-closer-to-north-africa-than-thai/patterns-euclidean":                1,
	}
	for k, v := range want {
		if got, ok := st.Support[k]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", k, got, ok, v)
		}
	}
}

// TestBootstrapLinkageReachesReplicates: the replicates' authenticity
// trees are linked with Params.Method, as the headline claims are, so
// single and average linkage disagree somewhere on them.
func TestBootstrapLinkageReachesReplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is slow")
	}
	p := New(nil)
	pr := testParams(hac.Single, 0)
	pr.Scale = 0.25
	single := bootstrap(t, p, pr, 4)
	pr.Method = hac.Average
	average := bootstrap(t, p, pr, 4)
	differ := 0
	for k, v := range single.Support {
		if strings.HasSuffix(k, "/authenticity-euclidean") && average.Support[k] != v {
			differ++
		}
	}
	if differ == 0 {
		t.Fatalf("single and average linkage agree on every authenticity row:\nsingle  %v\naverage %v",
			single.Support, average.Support)
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is slow")
	}
	pr := testParams(core.DefaultLinkage, 0)
	a := bootstrap(t, New(nil), pr, 3)
	b := bootstrap(t, New(nil), pr, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic bootstrap:\n%v\n%v", a.Support, b.Support)
	}
}

// TestBootstrapWorkersInvariant: Workers bounds each replicate's
// stages and never changes the result.
func TestBootstrapWorkersInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is slow")
	}
	seq := bootstrap(t, New(nil), testParams(core.DefaultLinkage, 1), 2)
	par := bootstrap(t, New(nil), testParams(core.DefaultLinkage, 4), 2)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("workers changed bootstrap support:\n%v\n%v", seq.Support, par.Support)
	}
}

// TestBootstrapWarmStoreComputesNothing: replicate artifacts are
// ordinary keyed stages, so a second Bootstrap over the same store is
// served entirely from it.
func TestBootstrapWarmStoreComputesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is slow")
	}
	p := New(nil)
	pr := testParams(core.DefaultLinkage, 0)
	cold := bootstrap(t, p, pr, 2)
	before := computed(p.Store())
	warm := bootstrap(t, p, pr, 2)
	if after := computed(p.Store()); after != before {
		t.Fatalf("warm bootstrap computed %d stages", after-before)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm bootstrap differs:\n%v\n%v", cold.Support, warm.Support)
	}
}

func computed(s *artifact.Store) uint64 {
	var n uint64
	for _, st := range s.Stats() {
		n += st.Computed
	}
	return n
}
