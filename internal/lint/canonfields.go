package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// CanonFields proves that the functions deriving cache identity from a
// parameter struct reference every exported field of that struct. Two
// structs carry the engine's cache identity: cuisines.Options
// (Canonical feeds the serving-cache key, DESIGN.md §7) and
// pipeline.Params (corpus/RunOn/runFrom derive every artifact stage key,
// DESIGN.md §8). Adding a field to either without deciding its
// cache-key fate silently aliases distinct analyses to one artifact —
// this analyzer makes that a build error. Fields that are *proven*
// output-neutral (Workers, Miner: pure performance knobs pinned by
// equivalence tests) are excluded below; a new exclusion is a code
// change here, i.e. a reviewed decision.
var CanonFields = &analysis.Analyzer{
	Name: "canonfields",
	Doc:  "cache-key derivation functions must reference every exported field of their structs",
	Run:  runCanonFields,
}

// canonTarget names one struct and the functions that must collectively
// reference all of its exported, non-excluded fields.
type canonTarget struct {
	typeName string
	funcs    []string
	exclude  map[string]bool
}

// perfKnobs are the fields every backend/worker-count equivalence test
// proves output-neutral; they are deliberately absent from cache keys.
var perfKnobs = map[string]bool{"Workers": true, "Miner": true}

var canonTargets = map[string][]canonTarget{
	"cuisines": {
		{typeName: "Options", funcs: []string{"Canonical"}, exclude: perfKnobs},
	},
	"cuisines/internal/pipeline": {
		{typeName: "Params", funcs: []string{"corpus", "RunOn", "runFrom"}, exclude: perfKnobs},
	},
}

func runCanonFields(pass *analysis.Pass) (any, error) {
	base, ext := normPkgPath(pass.Pkg.Path())
	targets := canonTargets[base]
	if ext || (len(targets) == 0 && !deterministicPkgs[base]) {
		return nil, nil
	}
	// The suppressor doubles as the directive auditor (unknown analyzer
	// names), so build it for every in-scope package.
	sup := newSuppressor(pass, "canonfields")
	for _, tg := range targets {
		checkCanonTarget(pass, sup, tg)
	}
	return nil, nil
}

func checkCanonTarget(pass *analysis.Pass, sup *suppressor, tg canonTarget) {
	obj := pass.Pkg.Scope().Lookup(tg.typeName)
	if obj == nil {
		pass.Reportf(pass.Files[0].Pos(), "canonfields is configured for type %s, which no longer exists in %s; update internal/lint/canonfields.go", tg.typeName, pass.Pkg.Path())
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(obj.Pos(), "canonfields target %s is not a struct; update internal/lint/canonfields.go", tg.typeName)
		return
	}
	// The exported fields the functions must account for, by object.
	need := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Exported() && !tg.exclude[f.Name()] {
			need[f] = true
		}
	}

	found := map[string]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			for _, name := range tg.funcs {
				if fd.Name.Name == name && found[name] == nil {
					found[name] = fd
				}
			}
		}
	}
	var first *ast.FuncDecl
	for _, name := range tg.funcs {
		fd := found[name]
		if fd == nil {
			pass.Reportf(pass.Files[0].Pos(), "canonfields is configured to check %s.%s via %s, which no longer exists; update internal/lint/canonfields.go", pass.Pkg.Name(), tg.typeName, name)
			continue
		}
		if first == nil {
			first = fd
		}
		markFieldRefs(pass, fd, st, need)
	}
	if first == nil || len(need) == 0 {
		return
	}
	if sup.allowed(first.Pos()) {
		return
	}
	missing := make([]string, 0, len(need))
	for f := range need {
		missing = append(missing, f.Name())
	}
	sort.Strings(missing)
	pass.Reportf(first.Pos(), "%s does not reference exported field%s %s of %s: every field must enter the cache key here or be excluded in internal/lint/canonfields.go as a proven output-neutral knob",
		strings.Join(tg.funcs, "/"), plural(missing), strings.Join(missing, ", "), tg.typeName)
}

func plural(s []string) string {
	if len(s) > 1 {
		return "s"
	}
	return ""
}

// markFieldRefs removes from need every field of st that fd's body
// reads through a selector.
func markFieldRefs(pass *analysis.Pass, fd *ast.FuncDecl, st *types.Struct, need map[*types.Var]bool) {
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if f, ok := s.Obj().(*types.Var); ok {
			delete(need, f)
		}
		return true
	})
}
