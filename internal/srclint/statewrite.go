package srclint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lanesimSuffix is the import-path suffix of the package that owns the
// lane machine's state arrays.
const lanesimSuffix = "/internal/lanesim"

// checkStateWrites flags writes to the lane machine's state arrays,
// lanesim.Words.Q and ROMQ, outside internal/lanesim: assignments,
// increments, range assignments and copy or clear into either field, at
// any depth of indexing or slicing. The machine presents state only on an
// Eval after Dirty is set, so a write that bypasses Machine.WriteState
// leaves the next Eval sweeping stale state. The rule sees writes through
// the fields themselves, not through a slice saved from them.
func checkStateWrites(p *Package) []Finding {
	if strings.HasSuffix(p.Path, lanesimSuffix) {
		return nil
	}
	var out []Finding
	flag := func(e ast.Expr, how string) {
		sel := stateField(p, e)
		if sel == nil {
			return
		}
		out = append(out, Finding{
			Rule:   "lanesim-state-write",
			Pos:    p.Fset.Position(e.Pos()),
			Object: "lanesim.Words." + sel.Sel.Name,
			Detail: how + " outside internal/lanesim; write state through Machine.WriteState so the next Eval presents it",
		})
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if x.Tok != token.DEFINE {
					for _, lhs := range x.Lhs {
						flag(lhs, "assignment")
					}
				}
			case *ast.IncDecStmt:
				flag(x.X, "increment")
			case *ast.RangeStmt:
				if x.Tok == token.ASSIGN {
					for _, e := range []ast.Expr{x.Key, x.Value} {
						if e != nil {
							flag(e, "range assignment")
						}
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) > 0 {
					if b, ok := p.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "copy" || b.Name() == "clear") {
						flag(x.Args[0], b.Name()+" into the field")
					}
				}
			}
			return true
		})
	}
	return out
}

// stateField peels indexing, slicing, parentheses and dereferences off e
// and returns the selector it ends in when that selects the Q or ROMQ
// field of lanesim.Words, directly or promoted through an embedding.
func stateField(p *Package, e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if s := p.Info.Selections[x]; s != nil && s.Kind() == types.FieldVal && isStateField(s.Obj()) {
				return x
			}
			return nil
		default:
			return nil
		}
	}
}

// isStateField reports whether obj is the Q or ROMQ field of the Words
// struct declared in a package ending in internal/lanesim.
func isStateField(obj types.Object) bool {
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), lanesimSuffix) || (obj.Name() != "Q" && obj.Name() != "ROMQ") {
		return false
	}
	words, ok := obj.Pkg().Scope().Lookup("Words").(*types.TypeName)
	if !ok {
		return false
	}
	st, ok := words.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == obj {
			return true
		}
	}
	return false
}
