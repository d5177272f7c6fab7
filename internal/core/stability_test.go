package core

import (
	"strings"
	"testing"

	"cuisines/internal/corpus"
)

func TestBootstrapClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is slow")
	}
	db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := BootstrapClaimsWorkers(db, DefaultMinSupport, 5, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 5 {
		t.Fatalf("iterations = %d", st.Iterations)
	}
	if len(st.Support) != 6 {
		t.Fatalf("support entries = %d: %v", len(st.Support), st.Support)
	}
	for k, v := range st.Support {
		if v < 0 || v > 1 {
			t.Fatalf("support %s = %v", k, v)
		}
	}
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
	if !strings.Contains(b.String(), "Bootstrap support") {
		t.Fatalf("render:\n%s", b.String())
	}
}

// TestBootstrapWorkersInvariant: the worker bound threaded through the
// replicate mining and pdist stages must never change the bootstrap
// result (it exists so a -workers daemon or CLI stops oversubscribing
// during validation, nothing more).
func TestBootstrapWorkersInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is slow")
	}
	db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := BootstrapClaimsWorkers(db, DefaultMinSupport, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BootstrapClaimsWorkers(db, DefaultMinSupport, 2, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range seq.Support {
		if par.Support[k] != v {
			t.Fatalf("workers changed bootstrap support at %s: %v vs %v", k, v, par.Support[k])
		}
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap is slow")
	}
	db, err := corpus.Generate(corpus.Config{Seed: corpus.DefaultSeed, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	a, err := BootstrapClaimsWorkers(db, DefaultMinSupport, 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BootstrapClaimsWorkers(db, DefaultMinSupport, 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Support {
		if b.Support[k] != v {
			t.Fatalf("non-deterministic bootstrap at %s", k)
		}
	}
}
