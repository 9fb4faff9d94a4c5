package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// EnumStr enforces the repo's enum convention on the Lane/RouteReason/
// Priority pattern: a package-level defined integer type with a String()
// method and declared constants. Such enums feed events, traces and the
// JSON metrics surface, where a constant that String() does not know
// prints as a bare number and silently breaks dashboards when someone
// appends a value to the iota block.
//
// For every enum type (defined integer type + String() string method +
// at least one package-level constant of that exact type):
//
//  1. each declared constant must be mentioned in the String() body —
//     a new constant someone forgot to add a case for is reported at its
//     declaration;
//  2. MarshalJSON and UnmarshalJSON must come as a pair — one without
//     the other means values encode but do not decode (or vice versa),
//     breaking the JSON round-trip;
//  3. when the pair exists, each declared constant must also be
//     mentioned in the UnmarshalJSON body, so every value String()
//     produces parses back (MarshalJSON conventionally delegates to
//     String and is not checked for per-constant coverage). A decoder
//     that itself calls the enum's String method — the `for c := A; c <=
//     Z; c++ { if c.String() == s }` table-free idiom — delegates its
//     coverage to String and satisfies the rule wholesale.
var EnumStr = &Analyzer{
	Name: "enumstr",
	Doc: "enum constants (integer type with a String method) need a String case " +
		"and, when the type has JSON methods, an UnmarshalJSON case",
	Run: runEnumStr,
}

func runEnumStr(pass *ModulePass) {
	m := pass.Module
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			basic, ok := named.Underlying().(*types.Basic)
			if !ok || basic.Info()&types.IsInteger == 0 {
				continue
			}
			stringFn := enumMethodBody(m, named, "String")
			if stringFn == nil {
				continue
			}
			consts := enumConsts(scope, named)
			if len(consts) == 0 {
				continue
			}

			stringRefs := objsUsedIn(stringFn)
			for _, c := range consts {
				if !stringRefs[c] {
					pass.ReportCat(c.Pos(), "string-case",
						"enum constant %s.%s has no case in %s.String; it prints as a bare number",
						named.Obj().Name(), c.Name(), named.Obj().Name())
				}
			}

			marshal := enumMethodBody(m, named, "MarshalJSON")
			unmarshal := enumMethodBody(m, named, "UnmarshalJSON")
			switch {
			case marshal != nil && unmarshal == nil:
				pass.ReportCat(marshal.Decl.Pos(), "json-roundtrip",
					"%s has MarshalJSON but no UnmarshalJSON; encoded values cannot be decoded back",
					named.Obj().Name())
			case unmarshal != nil && marshal == nil:
				pass.ReportCat(unmarshal.Decl.Pos(), "json-roundtrip",
					"%s has UnmarshalJSON but no MarshalJSON; the wire format is asymmetric",
					named.Obj().Name())
			case marshal != nil && unmarshal != nil:
				unmarshalRefs := objsUsedIn(unmarshal)
				if unmarshalRefs[stringFn.Obj] {
					continue // decoder compares against String(): coverage delegated
				}
				for _, c := range consts {
					if !unmarshalRefs[c] {
						pass.ReportCat(c.Pos(), "json-roundtrip",
							"enum constant %s.%s has no case in %s.UnmarshalJSON; its encoded form does not parse back",
							named.Obj().Name(), c.Name(), named.Obj().Name())
					}
				}
			}
		}
	}
}

// enumMethodBody returns the module FuncInfo of named's method, or nil
// when the method is absent or declared without a body in this module.
func enumMethodBody(m *Module, named *types.Named, method string) *FuncInfo {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), method)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return m.FuncInfo(fn)
}

// enumConsts returns the package-level constants declared with exactly
// type named, in declaration order (scope names are sorted; re-sort by
// position for stable, source-ordered reporting).
func enumConsts(scope *types.Scope, named *types.Named) []*types.Const {
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if ok && types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// objsUsedIn collects every object referenced by an identifier inside the
// function's body.
func objsUsedIn(fi *FuncInfo) map[types.Object]bool {
	used := make(map[types.Object]bool)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := fi.Pkg.Info.Uses[id]; obj != nil {
				used[obj] = true
			}
		}
		return true
	})
	return used
}
