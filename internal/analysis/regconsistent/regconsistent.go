// Package regconsistent is the module-wide registry checker: the repo
// wires algorithms and partitioners together through strings and an
// enum, and the compiler verifies none of it.
//
// Enum surfaces (for any package declaring `type Algorithm` with
// constants): every switch over the type in non-test files, every
// package-level map[string]Algorithm literal, and every composite
// literal whose declaration carries //dgsvet:exhaustive (the
// conformance matrix, as values; the name table indexed by the
// constants, as keys) must mention every constant — adding AlgoX and
// forgetting one site otherwise surfaces as "unknown algorithm" at
// query time, or worse, as a conformance matrix that silently stops
// covering the new algorithm.
//
// String surfaces: names passed to RegisterAlgorithm must be unique;
// every constant SessionSpec{Algo: ...} value must match a registered
// algorithm name (a typo opens a session no site can build); every
// constant strategy name passed to PartitionBy/PartitionWith must match
// a registered partitioner.
// Deliberate negatives (tests probing the unknown-name error path)
// carry //lint:allow regconsistent.
package regconsistent

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"dgs/internal/analysis"
	"dgs/internal/analysis/load"
)

// ExhaustiveMarker annotates a composite literal's declaration that
// must cover every Algorithm constant.
const ExhaustiveMarker = "//dgsvet:exhaustive"

// Analyzer implements the regconsistent check.
var Analyzer = &analysis.Analyzer{
	Name:      "regconsistent",
	Doc:       "Algorithm switches/maps/marked literals must be exhaustive; RegisterAlgorithm names unique; SessionSpec.Algo and partition strategy strings must be registered",
	RunModule: runModule,
}

func runModule(pass *analysis.ModulePass) error {
	mod := pass.Module

	// Enum surfaces, one sweep per Algorithm type found.
	for _, enum := range findEnums(mod) {
		checkEnum(pass, mod, enum)
	}

	// String surfaces.
	algos := map[string]token.Pos{}  // registered algorithm name -> first site
	parts := map[string]bool{}       // registered partitioner names
	var specUses, stratUses []strUse // to vet after collection
	for _, pkg := range mod.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					switch calleeName(n) {
					case "RegisterAlgorithm":
						if len(n.Args) >= 1 {
							if name, ok := constString(info, n.Args[0]); ok {
								if first, dup := algos[name]; dup {
									pass.Reportf(n.Args[0].Pos(), "algorithm %q registered more than once (first at %s)",
										name, mod.Fset.Position(first))
								} else {
									algos[name] = n.Args[0].Pos()
								}
							}
						}
					case "RegisterPartitioner":
						for _, arg := range n.Args {
							if name, ok := firstString(info, arg); ok {
								parts[name] = true
							}
						}
					case "PartitionBy", "PartitionWith":
						if len(n.Args) >= 2 {
							if name, ok := constString(info, n.Args[1]); ok {
								stratUses = append(stratUses, strUse{name, n.Args[1].Pos()})
							}
						}
					}
				case *ast.CompositeLit:
					if !isNamed(info, n, "SessionSpec") {
						return true
					}
					for _, el := range n.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if id, ok := kv.Key.(*ast.Ident); !ok || id.Name != "Algo" {
							continue
						}
						if name, ok := constString(info, kv.Value); ok {
							specUses = append(specUses, strUse{name, kv.Value.Pos()})
						}
					}
				}
				return true
			})
		}
	}
	for _, u := range specUses {
		if _, ok := algos[u.name]; !ok {
			pass.Reportf(u.pos, "SessionSpec.Algo %q matches no RegisterAlgorithm call; no site can build this session", u.name)
		}
	}
	for _, u := range stratUses {
		if !parts[u.name] {
			pass.Reportf(u.pos, "partition strategy %q matches no registered partitioner", u.name)
		}
	}
	return nil
}

type strUse struct {
	name string
	pos  token.Pos
}

// enum is a discovered Algorithm type with its constants.
type enum struct {
	typ    *types.Named
	consts []*types.Const // declaration order not guaranteed; sorted by name for messages
}

// findEnums locates every named type `Algorithm` with at least one
// package-level constant of that type.
func findEnums(mod *load.Module) []enum {
	var out []enum
	for _, pkg := range mod.Pkgs {
		obj, ok := pkg.Types.Scope().Lookup("Algorithm").(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		var consts []*types.Const
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
				consts = append(consts, c)
			}
		}
		if len(consts) > 0 {
			out = append(out, enum{typ: named, consts: consts})
		}
	}
	return out
}

// checkEnum vets the three exhaustiveness surfaces of one enum.
func checkEnum(pass *analysis.ModulePass, mod *load.Module, e enum) {
	for _, pkg := range mod.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			isTest := strings.HasSuffix(mod.Fset.File(file.Pos()).Name(), "_test.go")
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Body == nil || isTest {
						continue
					}
					ast.Inspect(d.Body, func(n ast.Node) bool {
						sw, ok := n.(*ast.SwitchStmt)
						if !ok || sw.Tag == nil {
							return true
						}
						tv, ok := info.Types[sw.Tag]
						if !ok || !types.Identical(tv.Type, e.typ) {
							return true
						}
						got := map[types.Object]bool{}
						for _, c := range sw.Body.List {
							for _, expr := range c.(*ast.CaseClause).List {
								if id, ok := expr.(*ast.Ident); ok {
									got[info.Uses[id]] = true
								} else if sel, ok := expr.(*ast.SelectorExpr); ok {
									got[info.Uses[sel.Sel]] = true
								}
							}
						}
						if missing := missingNames(e.consts, got); missing != "" {
							pass.Reportf(sw.Pos(), "switch over %s misses %s", e.typ.Obj().Name(), missing)
						}
						return true
					})
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					marked := hasMarker(d.Doc)
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, v := range vs.Values {
							cl, ok := v.(*ast.CompositeLit)
							if !ok {
								continue
							}
							tv, ok := info.Types[cl]
							if !ok {
								continue
							}
							switch t := tv.Type.Underlying().(type) {
							case *types.Map:
								// Only maps valued in the enum, outside tests.
								if isTest || !types.Identical(t.Elem(), e.typ) {
									continue
								}
								checkLit(pass, info, cl, e, "map", false)
							case *types.Slice:
								// Only literals the author marked exhaustive.
								if !marked || !types.Identical(t.Elem(), e.typ) {
									continue
								}
								checkLit(pass, info, cl, e, ExhaustiveMarker+" literal", false)
							case *types.Array:
								// A marked table indexed by the enum
								// ([...]T{AlgoX: ...}): the keys must cover it.
								if !marked || !keyedBy(info, cl, e.typ) {
									continue
								}
								checkLit(pass, info, cl, e, ExhaustiveMarker+" table", true)
							}
						}
					}
				}
			}
		}
	}
}

// checkLit reports enum constants absent from the literal's keys
// (keys=true, indexed tables), or from its values (map literals) or
// elements (slice literals).
func checkLit(pass *analysis.ModulePass, info *types.Info, cl *ast.CompositeLit, e enum, what string, keys bool) {
	got := map[types.Object]bool{}
	for _, el := range cl.Elts {
		v := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			v = kv.Value
			if keys {
				v = kv.Key
			}
		}
		if id, ok := v.(*ast.Ident); ok {
			got[info.Uses[id]] = true
		} else if sel, ok := v.(*ast.SelectorExpr); ok {
			got[info.Uses[sel.Sel]] = true
		}
	}
	if missing := missingNames(e.consts, got); missing != "" {
		pass.Reportf(cl.Pos(), "%s over %s misses %s", what, e.typ.Obj().Name(), missing)
	}
}

// keyedBy reports whether some element of the literal is indexed by a
// constant of the enum type.
func keyedBy(info *types.Info, cl *ast.CompositeLit, enum *types.Named) bool {
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if tv, ok := info.Types[kv.Key]; ok && types.Identical(tv.Type, enum) {
				return true
			}
		}
	}
	return false
}

func missingNames(consts []*types.Const, got map[types.Object]bool) string {
	var missing []string
	for _, c := range consts {
		if !got[c] {
			missing = append(missing, c.Name())
		}
	}
	sort.Strings(missing)
	return strings.Join(missing, ", ")
}

func hasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, ExhaustiveMarker) {
			return true
		}
	}
	return false
}

// isNamed reports whether the composite literal's type (after pointer
// indirection) is a named type with the given name, any package.
func isNamed(info *types.Info, cl *ast.CompositeLit, name string) bool {
	tv, ok := info.Types[cl]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == name
}

func calleeName(call *ast.CallExpr) string {
	if id := analysis.CalleeIdent(call); id != nil {
		return id.Name
	}
	return ""
}

// constString evaluates e to a constant string value.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// firstString returns the first constant string found in e's subtree —
// for RegisterPartitioner(funcPartitioner{"name", ...}) shapes where
// the name is the literal's leading field.
func firstString(info *types.Info, e ast.Expr) (string, bool) {
	var name string
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if s, ok := constString(info, expr); ok {
			// Skip the composite literal itself (not constant) and dig
			// until an actual constant expression.
			name, found = s, true
			return false
		}
		return true
	})
	return name, found
}
