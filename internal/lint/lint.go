// Package lint holds the project's custom go/analysis analyzers:
// compile-time enforcement of the invariants the equivalence tests
// check at run time (DESIGN.md §11).
//
// The engine's load-bearing properties — byte-identical output across
// worker counts and bitmap layouts, and
// content-addressed artifact reuse — are conventions of the code, not
// of the language. Each analyzer turns one such convention into a
// build error:
//
//   - mapiter: no observable map iteration order in deterministic
//     packages (collect-and-sort is the approved idiom).
//   - wallclock: no time.Now / math/rand in deterministic packages;
//     randomness comes from internal/rng.
//   - canonfields: Options.Canonical and the pipeline stage-key
//     functions must reference every exported field of their structs,
//     so a new field cannot silently skip the cache key.
//   - codecver: artifact codecs pair encoder/decoder under one
//     kind+version, and flat-codec magics are globally unique.
//   - nakedgo: ordered concurrency lives in internal/parallel; naked
//     go statements are forbidden in deterministic packages.
//
// A finding can be suppressed with a directive on the offending line
// or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory: a reason-less directive suppresses nothing
// and is itself a finding.
package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers is the full suite, in the order cmd/cuisinelint runs them.
var Analyzers = []*analysis.Analyzer{
	CanonFields,
	CodecVer,
	MapIter,
	NakedGo,
	WallClock,
}

// deterministicPkgs are the packages under the byte-identity contract
// (DESIGN.md §3): their outputs feed artifact keys, cached analyses
// and the serving layer, so any run-to-run nondeterminism inside them
// poisons caches fleet-wide. Every package that computes artifact
// bytes is listed, including the corpus (recipedb), the elbow curve
// (kmeans) and the geographic distances (geo). cmd/, internal/server,
// internal/parallel, internal/artifact and friends are deliberately
// outside: they own wall clocks, access logs and goroutines, and never
// produce artifact bytes themselves. TestScopedPackagesExist keeps
// every entry naming a real package.
var deterministicPkgs = map[string]bool{
	"cuisines":                       true,
	"cuisines/internal/core":         true,
	"cuisines/internal/pipeline":     true,
	"cuisines/internal/itemset":      true,
	"cuisines/internal/miner":        true,
	"cuisines/internal/eclat":        true,
	"cuisines/internal/hac":          true,
	"cuisines/internal/kmeans":       true,
	"cuisines/internal/geo":          true,
	"cuisines/internal/recipedb":     true,
	"cuisines/internal/rules":        true,
	"cuisines/internal/encode":       true,
	"cuisines/internal/distance":     true,
	"cuisines/internal/matrix":       true,
	"cuisines/internal/corpus":       true,
	"cuisines/internal/authenticity": true,
	"cuisines/internal/treecmp":      true,
}

// normPkgPath strips the test-variant decorations go vet compiles
// packages under: "p [p.test]" is the package rebuilt with its test
// files, "p_test" the external test package, "p.test" the synthesized
// test main. It returns the base import path and whether this is the
// external _test package.
func normPkgPath(path string) (base string, externalTest bool) {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	if strings.HasSuffix(path, "_test") {
		return strings.TrimSuffix(path, "_test"), true
	}
	return path, false
}

// clusterPkgs extends the wallclock/nakedgo scope (not the full
// determinism contract) to serving-infrastructure packages whose
// behavior must be reproducible in tests: internal/cluster makes
// routing and fetch decisions, so its clocks are injected (wallclock)
// and its only concurrency is the daemon-run health loop (nakedgo);
// internal/render evicts by pure access order and single-flights
// builds on the caller's goroutine, so an ambient clock or a naked go
// creeping into its eviction logic is a design regression, not a
// style nit. mapiter/canonfields/codecver stay out — these packages
// neither render maps into output nor own codecs.
var clusterPkgs = map[string]bool{
	"cuisines/internal/cluster": true,
	"cuisines/internal/render":  true,
}

// inScope reports whether the pass's package is under the determinism
// contract. External _test packages are not: they consume output, they
// do not produce artifact bytes.
func inScope(pass *analysis.Pass) bool {
	return inScopeFor(pass, nil)
}

// inScopeFor is inScope with a per-analyzer extra scope: a package in
// extra is checked even though it is outside the determinism contract.
func inScopeFor(pass *analysis.Pass, extra map[string]bool) bool {
	base, ext := normPkgPath(pass.Pkg.Path())
	return !ext && (deterministicPkgs[base] || extra[base])
}

// isTestFile reports whether the node's file is a _test.go file.
// In-package test files are compiled into the "p [p.test]" variant, so
// scope checks alone cannot exclude them.
func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	f := pass.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	pos      token.Pos
}

const allowPrefix = "//lint:allow"

// fileDirectives collects the //lint:allow directives of a file, keyed
// by the line the comment sits on.
func fileDirectives(pass *analysis.Pass, file *ast.File) map[int][]allowDirective {
	var out map[int][]allowDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimSpace(c.Text[len(allowPrefix):])
			name, reason, _ := strings.Cut(rest, " ")
			if out == nil {
				out = make(map[int][]allowDirective)
			}
			line := pass.Fset.Position(c.Pos()).Line
			out[line] = append(out[line], allowDirective{
				analyzer: name,
				reason:   strings.TrimSpace(reason),
				pos:      c.Pos(),
			})
		}
	}
	return out
}

// suppressor answers "is this finding allowed?" for one analyzer over
// one pass, and reports the analyzer's own malformed directives
// (reason-less, or — for the designated auditor — naming no known
// analyzer) exactly once.
type suppressor struct {
	pass    *analysis.Pass
	name    string
	byFile  map[*ast.File]map[int][]allowDirective
	audited bool
}

// directiveAuditor is the one analyzer that validates analyzer names
// in directives; if every analyzer did, an unknown name would be
// reported five times.
const directiveAuditor = "canonfields"

func newSuppressor(pass *analysis.Pass, name string) *suppressor {
	s := &suppressor{pass: pass, name: name, byFile: make(map[*ast.File]map[int][]allowDirective)}
	for _, f := range pass.Files {
		s.byFile[f] = fileDirectives(pass, f)
	}
	s.audit()
	return s
}

// analyzerNames lists the suite by name (a string list, not a walk of
// Analyzers: audit runs during analysis, and referring to Analyzers
// from a Run function would be an initialization cycle).
var analyzerNames = map[string]bool{
	"canonfields": true,
	"codecver":    true,
	"mapiter":     true,
	"nakedgo":     true,
	"wallclock":   true,
}

// audit reports this analyzer's reason-less directives (they suppress
// nothing) and, for the auditor, directives naming unknown analyzers.
func (s *suppressor) audit() {
	known := analyzerNames
	for _, dirs := range s.byFile {
		for _, ds := range dirs {
			for _, d := range ds {
				switch {
				case d.analyzer == s.name && d.reason == "":
					s.pass.Reportf(d.pos, "lint:allow %s needs a reason (\"//lint:allow %s <why>\"); reason-less directives suppress nothing", s.name, s.name)
				case s.name == directiveAuditor && d.analyzer != "" && !known[d.analyzer]:
					s.pass.Reportf(d.pos, "lint:allow names unknown analyzer %q", d.analyzer)
				case s.name == directiveAuditor && d.analyzer == "":
					s.pass.Reportf(d.pos, "lint:allow needs an analyzer name and a reason")
				}
			}
		}
	}
}

// allowed reports whether a finding at pos is suppressed by a
// reasoned //lint:allow directive on the same line or the line above.
func (s *suppressor) allowed(pos token.Pos) bool {
	line := s.pass.Fset.Position(pos).Line
	for f, dirs := range s.byFile {
		if f.FileStart > pos || pos >= f.FileEnd {
			continue
		}
		for _, d := range append(dirs[line], dirs[line-1]...) {
			if d.analyzer == s.name && d.reason != "" {
				return true
			}
		}
	}
	return false
}
