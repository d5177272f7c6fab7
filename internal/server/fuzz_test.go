package server

import (
	"context"
	"net/http"
	"net/url"
	"testing"

	"cuisines"
)

// FuzzRequestOptions holds the query boundary to its bounds: whatever
// raw query requestOptions accepts must name a finite scale in
// (0, MaxScale], a support in [MinQuerySupport, 1], and options that
// canonicalize to exactly the canonical form it returned.
func FuzzRequestOptions(f *testing.F) {
	for _, seed := range []string{
		"", "support=NaN", "support=nan", "scale=NaN", "scale=nan",
		"support=0x1p-2", "scale=0x1p-2", "scale=Inf", "support=0.05",
		"support=0.3&support=NaN", "scale=NaN&scale=2", "k=3&k=4",
		"seed=7&linkage=upgma&scale=0.5&support=0.25",
	} {
		f.Add(seed)
	}
	s := New(Config{
		Base: cuisines.Options{Scale: testScale},
		Runner: func(context.Context, cuisines.Options) (*cuisines.Analysis, error) {
			panic("requestOptions ran the pipeline")
		},
	})
	f.Fuzz(func(t *testing.T, raw string) {
		opts, canon, err := s.requestOptions(&http.Request{URL: &url.URL{RawQuery: raw}})
		if err != nil {
			return
		}
		if !(canon.Scale > 0 && canon.Scale <= MaxScale) {
			t.Fatalf("%q: accepted scale %v", raw, canon.Scale)
		}
		if !(canon.MinSupport >= MinQuerySupport && canon.MinSupport <= 1) {
			t.Fatalf("%q: accepted support %v", raw, canon.MinSupport)
		}
		again, err := opts.Canonical()
		if err != nil || again != canon {
			t.Fatalf("%q: Canonical() = %+v, %v; requestOptions returned %+v", raw, again, err, canon)
		}
	})
}

// FuzzCanonicalQuery pins the render key to what the handlers read: two
// queries that share a key must agree on q.Get for every parameter the
// key does not drop, or one would be served the other's cached body.
func FuzzCanonicalQuery(f *testing.F) {
	for _, seed := range [][2]string{
		{"k=3&k=4", "k=4&k=3"},
		{"k=4&k=3", "k=4"},
		{"a=1&b=2", "b=2&a=1"},
		{"support=NaN&k=3", "support=nan&k=3"},
		{"scale=0x1p-2&k=5", "k=5"},
		{"k=&k=3", "k=3&k="},
		{"region=UK&region=Irish", "region=UK"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		qa, _ := url.ParseQuery(a)
		qb, _ := url.ParseQuery(b)
		if canonicalQuery(qa) != canonicalQuery(qb) {
			return
		}
		for _, q := range []url.Values{qa, qb} {
			for k := range q {
				if !renderKeyDrop[k] && qa.Get(k) != qb.Get(k) {
					t.Fatalf("%q and %q share a render key but read %s=%q and %q",
						a, b, k, qa.Get(k), qb.Get(k))
				}
			}
		}
	})
}
