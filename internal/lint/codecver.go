package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// CodecVer checks the artifact-codec invariants that keep a warm disk
// (or, eventually, a peer fleet) readable:
//
//   - every codec composite literal (a struct with `kind` and
//     `version` fields, i.e. pipeline's flatCodec) declares a unique
//     kind per package and a version >= 1;
//   - flat codecs set appendFn and decodeFn together, and the pair
//     follows the append<X>/decode<X> naming so an encoder can never
//     be registered against another shape's decoder;
//   - magic constants ("CFL1", "CART", ...) are globally unique: each
//     pass exports its magics as a package fact and checks them
//     against every dependency's, so two framings can never claim the
//     same four bytes and misparse each other's files.
var CodecVer = &analysis.Analyzer{
	Name:      "codecver",
	Doc:       "artifact codecs pair encoder/decoder under one kind+version; magics are globally unique",
	Run:       runCodecVer,
	FactTypes: []analysis.Fact{(*magicsFact)(nil)},
}

// magicsFact records a package's declared magic constants so importing
// packages can detect collisions. Exported fields: facts are gob-coded
// across unitchecker invocations.
type magicsFact struct {
	Magics []magicDecl
}

type magicDecl struct {
	Name  string // declared identifier, e.g. "flatMagic"
	Value string // the magic bytes, e.g. "CFL1"
}

func (*magicsFact) AFact()           {}
func (f *magicsFact) String() string { return fmt.Sprintf("magics(%v)", f.Magics) }

// codecScope extends the deterministic set with internal/artifact: the
// store is outside the byte-identity contract (it owns mtimes and GC)
// but its disk framing ("CART") competes for the same magic namespace.
func codecScope(pass *analysis.Pass) bool {
	base, ext := normPkgPath(pass.Pkg.Path())
	return !ext && (deterministicPkgs[base] || base == "cuisines/internal/artifact")
}

func runCodecVer(pass *analysis.Pass) (any, error) {
	if !codecScope(pass) {
		return nil, nil
	}
	sup := newSuppressor(pass, "codecver")
	checkCodecLiterals(pass, sup)
	checkMagics(pass, sup)
	return nil, nil
}

// checkCodecLiterals validates every composite literal of a codec-like
// struct: unique kind, positive version, paired append/decode funcs.
func checkCodecLiterals(pass *analysis.Pass, sup *suppressor) {
	kinds := map[string]ast.Expr{}
	for _, file := range pass.Files {
		if isTestFile(pass, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(lit)
			if t == nil {
				return true
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok || !isCodecStruct(st) {
				return true
			}
			fields := map[string]ast.Expr{}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					fields[id.Name] = kv.Value
				}
			}
			if sup.allowed(lit.Pos()) {
				return true
			}
			checkOneCodec(pass, lit, st, fields, kinds)
			return true
		})
	}
}

// isCodecStruct reports whether st looks like a codec registration
// struct: it has both a string `kind` and an integer `version` field.
func isCodecStruct(st *types.Struct) bool {
	var hasKind, hasVersion bool
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		b, ok := f.Type().Underlying().(*types.Basic)
		if !ok {
			continue
		}
		switch {
		case f.Name() == "kind" && b.Info()&types.IsString != 0:
			hasKind = true
		case f.Name() == "version" && b.Info()&types.IsInteger != 0:
			hasVersion = true
		}
	}
	return hasKind && hasVersion
}

func checkOneCodec(pass *analysis.Pass, lit *ast.CompositeLit, st *types.Struct, fields map[string]ast.Expr, kinds map[string]ast.Expr) {
	if kindExpr, ok := fields["kind"]; ok {
		if v := pass.TypesInfo.Types[kindExpr].Value; v != nil && v.Kind() == constant.String {
			kind := constant.StringVal(v)
			if prev, dup := kinds[kind]; dup {
				pass.Reportf(lit.Pos(), "codec kind %q is already registered at %s; two codecs sharing a kind would claim each other's artifact files", kind, pass.Fset.Position(prev.Pos()))
			} else {
				kinds[kind] = kindExpr
			}
		}
	}
	if verExpr, ok := fields["version"]; ok {
		if v := pass.TypesInfo.Types[verExpr].Value; v != nil && v.Kind() == constant.Int {
			if ver, ok := constant.Int64Val(v); ok && ver < 1 {
				pass.Reportf(lit.Pos(), "codec version %d is not positive; versions start at 1 so a zero header is always invalid", ver)
			}
		}
	}
	// Flat codecs: encoder and decoder register together, suffixes match.
	if !hasField(st, "appendFn") || !hasField(st, "decodeFn") {
		return
	}
	appendE, hasA := fields["appendFn"]
	decodeE, hasD := fields["decodeFn"]
	if hasA != hasD {
		pass.Reportf(lit.Pos(), "flat codec sets only one of appendFn/decodeFn; encoder and decoder must be registered together under one kind+version")
		return
	}
	if !hasA {
		return
	}
	an, aok := funcSuffix(appendE, "append")
	dn, dok := funcSuffix(decodeE, "decode")
	if aok && dok && an != dn {
		pass.Reportf(lit.Pos(), "flat codec pairs append%s with decode%s; encoder/decoder names must share a suffix so the pair is auditable at the registration site", an, dn)
	}
}

func hasField(st *types.Struct, name string) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return true
		}
	}
	return false
}

// funcSuffix extracts X from an identifier prefixX.
func funcSuffix(e ast.Expr, prefix string) (string, bool) {
	id, ok := e.(*ast.Ident)
	if !ok || !strings.HasPrefix(id.Name, prefix) {
		return "", false
	}
	return id.Name[len(prefix):], true
}

// checkMagics collects this package's magic constants, reports
// collisions within the package and against every dependency's
// exported magics, then exports its own as a fact.
func checkMagics(pass *analysis.Pass, sup *suppressor) {
	type site struct {
		decl magicDecl
		pos  ast.Node
	}
	var own []site
	for _, file := range pass.Files {
		if isTestFile(pass, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range vs.Names {
				if !strings.Contains(strings.ToLower(name.Name), "magic") || i >= len(vs.Values) {
					continue
				}
				if val, ok := magicValue(pass, vs.Values[i]); ok {
					own = append(own, site{magicDecl{Name: name.Name, Value: val}, vs.Values[i]})
				}
			}
			return true
		})
	}
	if len(own) == 0 {
		return
	}

	// Dependencies' magics, gathered from facts. Sort for stable
	// diagnostic order.
	imported := map[string][]string{} // value -> "pkg.name" claimants
	for _, pf := range pass.AllPackageFacts() {
		mf, ok := pf.Fact.(*magicsFact)
		if !ok {
			continue
		}
		for _, m := range mf.Magics {
			imported[m.Value] = append(imported[m.Value], pf.Package.Path()+"."+m.Name)
		}
	}
	for v := range imported {
		sort.Strings(imported[v])
	}

	seen := map[string]magicDecl{}
	for _, s := range own {
		if sup.allowed(s.pos.Pos()) {
			continue
		}
		if prev, dup := seen[s.decl.Value]; dup {
			pass.Reportf(s.pos.Pos(), "magic %q is already used by %s in this package; every framing needs its own magic or corrupt files decode as the wrong shape", s.decl.Value, prev.Name)
			continue
		}
		seen[s.decl.Value] = s.decl
		if claimants := imported[s.decl.Value]; len(claimants) > 0 {
			pass.Reportf(s.pos.Pos(), "magic %q collides with %s; magics must be globally unique across the artifact format family", s.decl.Value, strings.Join(claimants, ", "))
		}
	}

	all := make([]magicDecl, 0, len(own))
	for _, s := range own {
		all = append(all, s.decl)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	pass.ExportPackageFact(&magicsFact{Magics: all})
}

// magicValue evaluates a magic declaration to its byte string: either
// a [N]byte composite literal of constant bytes or a short string
// constant.
func magicValue(pass *analysis.Pass, e ast.Expr) (string, bool) {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		s := constant.StringVal(tv.Value)
		if len(s) > 0 && len(s) <= 8 {
			return s, true
		}
		return "", false
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return "", false
	}
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return "", false
	}
	arr, ok := t.Underlying().(*types.Array)
	if !ok {
		return "", false
	}
	b, ok := arr.Elem().Underlying().(*types.Basic)
	if !ok || b.Kind() != types.Byte && b.Kind() != types.Uint8 {
		return "", false
	}
	var out []byte
	for _, el := range lit.Elts {
		tv, ok := pass.TypesInfo.Types[el]
		if !ok || tv.Value == nil {
			return "", false
		}
		v, ok := constant.Uint64Val(constant.ToInt(tv.Value))
		if !ok {
			return "", false
		}
		out = append(out, byte(v))
	}
	if len(out) == 0 {
		return "", false
	}
	return string(out), true
}
