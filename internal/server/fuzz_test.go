package server

import (
	"context"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"strings"
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

// The header fuzz targets below hold the parsers to small reference
// readings of the RFC 9110 grammars, written independently here with
// regular expressions rather than by calling into the code under test.

const (
	refOWS = `[ \t]*`
	// entity-tag = [ W/ ] DQUOTE *etagc DQUOTE, where etagc is %x21,
	// %x23-7E or obs-text (any byte from %x80; Go's regexp reads each
	// such byte, or a valid multi-byte rune built of them, as one rune
	// outside ASCII).
	refEntityTag = `(?:W/)?"[^\x00-\x20"\x7f]*"`
)

var (
	// If-None-Match = "*" / #entity-tag, with the list rule's empty
	// elements allowed.
	refIfNoneMatch = regexp.MustCompile(`^` + refOWS + `(?:\*|(?:` + refEntityTag + `)?(?:` + refOWS + `,` + refOWS + `(?:` + refEntityTag + `)?)*)` + refOWS + `$`)
	refTag         = regexp.MustCompile(refEntityTag)
	// qvalue = ( "0" [ "." 0*3DIGIT ] ) / ( "1" [ "." 0*3("0") ] )
	refQValue = regexp.MustCompile(`^(?:0(?:\.[0-9]{0,3})?|1(?:\.0{0,3})?)$`)
)

// refETagMatch is If-None-Match evaluated by the grammar: a field that
// does not parse matches nothing; "*" matches; otherwise any listed
// entity-tag matches under weak comparison.
func refETagMatch(header, etag string) bool {
	if !refIfNoneMatch.MatchString(header) {
		return false
	}
	if strings.Trim(header, " \t") == "*" {
		return true
	}
	for _, tag := range refTag.FindAllString(header, -1) {
		if strings.TrimPrefix(tag, "W/") == etag {
			return true
		}
	}
	return false
}

// refAcceptsGzip is Accept-Encoding negotiation for gzip: every member
// is a coding with optional parameters; its weight is its first q
// parameter when that reads as a qvalue and 1 otherwise; gzip (or
// x-gzip, codings compared ASCII case-insensitively) is acceptable if
// some gzip member has a nonzero weight, or, when no member names
// gzip, if some * member does.
func refAcceptsGzip(header string) bool {
	weights := map[string][]float64{}
	for _, member := range strings.Split(header, ",") {
		fields := strings.Split(member, ";")
		coding := asciiLower(strings.Trim(fields[0], " \t"))
		if coding == "x-gzip" {
			coding = "gzip"
		}
		w := 1.0
		for _, f := range fields[1:] {
			name, v, ok := strings.Cut(f, "=")
			if !ok || asciiLower(strings.Trim(name, " \t")) != "q" {
				continue
			}
			if v = strings.Trim(v, " \t"); refQValue.MatchString(v) {
				w, _ = strconv.ParseFloat(v, 64)
			}
			break
		}
		weights[coding] = append(weights[coding], w)
	}
	listed := "*"
	if len(weights["gzip"]) > 0 {
		listed = "gzip"
	}
	for _, w := range weights[listed] {
		if w > 0 {
			return true
		}
	}
	return false
}

func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// FuzzAcceptsGzip holds acceptsGzip to refAcceptsGzip on any header.
func FuzzAcceptsGzip(f *testing.F) {
	for _, seed := range []string{
		"", "gzip", "x-gzip;q=0.5", "gzip;q=0, *", "*;q=0, gzip",
		"gzip;q=NaN", "gzip;q=-1, *;q=0", "gzip;q=Inf", "gzip;q=0x1p-2",
		"gzip;q=2", "gzip;q=1.0001", "gzip;q=0.0000", "gzip;q=0.",
		"GZIP ; Q = 0", "gz\u0130p", "deflate, *;q=0.001", "br;q=1, gzip;q=0, *;q",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, header string) {
		r := &http.Request{Header: http.Header{"Accept-Encoding": {header}}}
		if got, want := acceptsGzip(r), refAcceptsGzip(header); got != want {
			t.Fatalf("Accept-Encoding %q: acceptsGzip = %v, reference = %v", header, got, want)
		}
	})
}

// FuzzETagMatch holds etagMatch to refETagMatch for any If-None-Match
// field against any well-formed strong validator "<opaque>".
func FuzzETagMatch(f *testing.F) {
	for _, seed := range [][2]string{
		{`"abc"`, "abc"}, {`W/"abc"`, "abc"}, {`"x", "abc"`, "abc"},
		{`*`, "abc"}, {` * `, "abc"}, {`*, "abc"`, "abc"}, {`"a,b"`, "a,b"},
		{`"x,"abc"`, "abc"}, {`"abc" junk`, "abc"}, {`, ,"abc",`, "abc"},
		{`"abc`, "abc"}, {`"abc""abc"`, "abc"}, {`w/"abc"`, "abc"},
		{"\"a\tb\"", "a\tb"}, {"\"\xff\"", "\xff"}, {`""`, ""}, {"", "abc"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, header, opaque string) {
		for i := 0; i < len(opaque); i++ {
			if c := opaque[i]; c <= ' ' || c == '"' || c == 0x7f {
				return // not etagc: no server validator looks like this
			}
		}
		etag := `"` + opaque + `"`
		if got, want := etagMatch(header, etag), refETagMatch(header, etag); got != want {
			t.Fatalf("If-None-Match %q against %s: etagMatch = %v, reference = %v", header, etag, got, want)
		}
	})
}
